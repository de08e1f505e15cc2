// Package blockcache implements the "native" baseline cache of the
// paper's Barnes-Hut evaluation (§IV-B): a block-based software cache
// with direct mapping, in the style of the ad-hoc caching layers found in
// PGAS runtimes (UPC, Chapel) and in the UPC Barnes-Hut code of Larkins
// et al.
//
// The remote address space of every target is divided into fixed-size
// blocks; block (target, disp/B) maps to exactly one cache slot. A get
// touching k blocks checks the k slots: every miss fetches the whole
// block from the remote window before the requested bytes are copied out.
// Conflicts therefore depend directly on the cache memory size — the
// behaviour the paper observes in Fig. 12 ("the number of conflicts is
// strictly related to the available memory size") — and small requests
// waste most of their block (internal fragmentation, §II).
package blockcache

import (
	"errors"

	"clampi/internal/datatype"
	"clampi/internal/netsim"
	"clampi/internal/rma"
	"clampi/internal/simtime"
)

// DefaultBlockSize is the block granularity used by the paper-equivalent
// configuration.
const DefaultBlockSize = 1024

// costTagCheck is the modeled CPU cost of one block tag check — the
// direct-mapped lookup is a single load and compare, cheaper than a
// Cuckoo lookup. Copies are charged via netsim.MemcpyCost, like CLaMPI's.
const costTagCheck = 15 * simtime.Nanosecond

// costAccess is the modeled fixed CPU cost of entering the native cache
// for one get: the PGAS-runtime work (shared-pointer decode, affinity
// check, cache dispatch) that the UPC software cache this baseline stands
// in for performs on every access.
const costAccess = 70 * simtime.Nanosecond

// Stats counts cache activity.
type Stats struct {
	Gets         int64
	BlockHits    int64
	BlockMisses  int64
	Conflicts    int64 // misses that displaced a valid block
	FetchedBytes int64 // bytes moved over the network (whole blocks)
	ServedBytes  int64 // payload bytes delivered to the application
}

// Cache is a direct-mapped block cache over one window. Not safe for
// concurrent use.
type Cache struct {
	win       rma.Window
	blockSize int
	nblocks   int
	data      []byte
	tags      []tag
	stats     Stats
}

type tag struct {
	target int
	block  int
	valid  bool
}

// ErrBadConfig reports invalid construction parameters.
var ErrBadConfig = errors.New("blockcache: memory must hold at least one block")

// New builds a cache of memoryBytes bytes with the given block size over
// win. memoryBytes is rounded down to a whole number of blocks.
func New(win rma.Window, memoryBytes, blockSize int) (*Cache, error) {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	n := memoryBytes / blockSize
	if n <= 0 {
		return nil, ErrBadConfig
	}
	return &Cache{
		win:       win,
		blockSize: blockSize,
		nblocks:   n,
		data:      make([]byte, n*blockSize),
		tags:      make([]tag, n),
	}, nil
}

// slotOf maps (target, block) to its unique slot: direct mapping.
func (c *Cache) slotOf(target, block int) int {
	return (block + target*2654435761) % c.nblocks
}

// Get reads len(dst) bytes at displacement disp of target's region,
// serving from cached blocks and fetching missing blocks whole. Fetched
// data is valid after Flush, per the window's epoch semantics; the
// application (like the paper's UPC code) reads destination buffers only
// after synchronizing.
func (c *Cache) Get(dst []byte, target, disp int) error {
	size := len(dst)
	c.stats.Gets++
	c.stats.ServedBytes += int64(size)
	regionSize, err := c.win.RegionSize(target)
	if err != nil {
		return err
	}
	if disp < 0 || disp+size > regionSize {
		return rma.ErrBounds
	}
	clock := c.win.Endpoint().Clock()
	clock.Busy(costAccess)
	for off := 0; off < size; {
		block := (disp + off) / c.blockSize
		blockStart := block * c.blockSize
		// Bytes of this block that the request needs.
		lo := disp + off - blockStart
		n := c.blockSize - lo
		if n > size-off {
			n = size - off
		}
		slot := c.slotOf(target, block)
		clock.Busy(costTagCheck)
		t := &c.tags[slot]
		if !t.valid || t.target != target || t.block != block {
			// Miss: fetch the whole block (clamped to region end).
			if t.valid {
				c.stats.Conflicts++
			}
			c.stats.BlockMisses++
			fetch := c.blockSize
			if blockStart+fetch > regionSize {
				fetch = regionSize - blockStart
			}
			buf := c.data[slot*c.blockSize : slot*c.blockSize+fetch]
			if err := c.win.Get(buf, datatype.Byte, fetch, target, blockStart); err != nil {
				return err
			}
			c.stats.FetchedBytes += int64(fetch)
			*t = tag{target: target, block: block, valid: true}
		} else {
			c.stats.BlockHits++
		}
		copy(dst[off:off+n], c.data[slot*c.blockSize+lo:slot*c.blockSize+lo+n])
		clock.Busy(netsim.MemcpyCost(n))
		off += n
	}
	return nil
}

// Flush completes outstanding block fetches (closes the epoch).
func (c *Cache) Flush() error { return c.win.FlushAll() }

// Invalidate drops every cached block.
func (c *Cache) Invalidate() {
	for i := range c.tags {
		c.tags[i] = tag{}
	}
}

// Name implements the getter interface label.
func (c *Cache) Name() string { return "native" }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// BlockSize returns the block granularity.
func (c *Cache) BlockSize() int { return c.blockSize }

// Blocks returns the number of cache slots.
func (c *Cache) Blocks() int { return c.nblocks }
