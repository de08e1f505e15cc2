module clampi/bench

go 1.22

require clampi v0.0.0

replace clampi => ../
