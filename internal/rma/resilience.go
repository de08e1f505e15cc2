package rma

// Resilience vocabulary shared by every layer that retries, verifies or
// degrades around transient transport failures (DESIGN.md §11). The one
// retry loop is internal/core's fill path, but the vocabulary lives here
// — not in the caching layer — because the transports need part of it:
// internal/mpi and internal/wire compute the checksum the fill verifiers
// compare against, and internal/wire and internal/fault report a failed
// batch as a BatchError.

import (
	"fmt"
	"math/rand"

	"clampi/internal/simtime"
)

// RetryPolicy bounds how a caller re-issues an operation that failed
// with ErrTransient. All timing is virtual (internal/simtime): backoffs
// advance the origin's clock, never the wall clock, so a retried run is
// exactly as deterministic as a fault-free one.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first call included);
	// <= 0 means retry until the deadline or budget stops it.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; zero selects
	// DefaultBaseBackoff.
	BaseBackoff simtime.Duration
	// MaxBackoff caps the exponential growth; zero selects
	// DefaultMaxBackoff.
	MaxBackoff simtime.Duration
	// Multiplier is the exponential growth factor; values <= 1 select
	// DefaultMultiplier.
	Multiplier float64
	// JitterFrac spreads each backoff uniformly over
	// [d·(1-J), d·(1+J)] using the caller's deterministic RNG; zero
	// disables jitter, values outside [0, 1] are clamped.
	JitterFrac float64
	// Deadline bounds the virtual time spent on one operation including
	// its backoffs; zero means no per-op deadline.
	Deadline simtime.Duration
	// Budget bounds the total retries the policy's owner may spend over
	// its lifetime (a coarse brake against retry storms); zero means
	// unlimited.
	Budget int64
}

// Defaults for RetryPolicy fields left zero.
const (
	DefaultBaseBackoff = 1 * simtime.Microsecond
	DefaultMaxBackoff  = 100 * simtime.Microsecond
	DefaultMultiplier  = 2.0
)

// DefaultRetryPolicy returns the policy the drivers use: four attempts,
// exponential 1 µs → 100 µs backoff with 20% jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 4,
		BaseBackoff: DefaultBaseBackoff,
		MaxBackoff:  DefaultMaxBackoff,
		Multiplier:  DefaultMultiplier,
		JitterFrac:  0.2,
	}
}

// Unlimited reports whether the policy retries until stopped by its
// deadline or budget rather than by an attempt count.
func (p *RetryPolicy) Unlimited() bool { return p.MaxAttempts <= 0 }

// Backoff returns the virtual-time delay before retry number attempt
// (1 = the delay after the first failure). rng supplies deterministic
// jitter; a nil rng disables jitter regardless of JitterFrac.
func (p *RetryPolicy) Backoff(attempt int, rng *rand.Rand) simtime.Duration {
	base := p.BaseBackoff
	if base <= 0 {
		base = DefaultBaseBackoff
	}
	ceil := p.MaxBackoff
	if ceil <= 0 {
		ceil = DefaultMaxBackoff
	}
	mult := p.Multiplier
	if mult <= 1 {
		mult = DefaultMultiplier
	}
	d := float64(base)
	for i := 1; i < attempt && d < float64(ceil); i++ {
		d *= mult
	}
	if d > float64(ceil) {
		d = float64(ceil)
	}
	if rng != nil && p.JitterFrac > 0 {
		j := p.JitterFrac
		if j > 1 {
			j = 1
		}
		d *= 1 + j*(2*rng.Float64()-1)
	}
	if d < 1 {
		d = 1
	}
	return simtime.Duration(d)
}

// BatchError reports which op of a GetBatch call failed. The already-
// issued prefix ops[:Op] was delivered normally; ops[Op:] was not
// issued. It wraps the underlying cause, so errors.Is sees through it
// (a transient batch failure still matches ErrTransient).
type BatchError struct {
	// Op indexes the failing op in the submitted slice.
	Op int
	// Err is the failure of that op.
	Err error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("rma: batch op %d: %v", e.Op, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *BatchError) Unwrap() error { return e.Err }

// IntegrityWindow is the optional attestation extension of Window:
// backends that can report a ground-truth checksum of a target range —
// computed target-side, over the authoritative region bytes — implement
// it, and fill verifiers compare the delivered payload against it to
// detect silent corruption. Layers probe for it with a type assertion;
// verification is skipped when the backend cannot attest.
type IntegrityWindow interface {
	Window
	// Checksum returns ChecksumBytes of target's region bytes
	// [disp, disp+size). The attestation channel is assumed reliable
	// (in a real deployment it would be a small, CRC-protected control
	// message).
	Checksum(target, disp, size int) (uint64, error)
}

// ChecksumBytes is the FNV-1a 64-bit hash both sides of an integrity
// check compute: backends over their authoritative region bytes,
// verifiers over the delivered payload.
func ChecksumBytes(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}
