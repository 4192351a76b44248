package main

import "time"

// The benchmark shares its host with other guests, and a busy neighbour
// slows this guest's cores even while it steals none of their time (a busy
// hyperthread sibling, a shared cache thrashed): every op then costs more
// CPU time and wall time, by up to a third on the hosts this was written
// on. A fixed reference kernel, timed by the sampler every sampleEvery,
// measures that slowdown as it happens, and the gated time figures are
// rescaled by refNominal / (the kernel's median time over the segment):
// they read as if every core ran the kernel in refNominal. The program's
// own work cannot move the kernel's time much: the kernel is the fastest
// of refTries back-to-back tries, so the program's cache pollution is paid
// by the first try only, and a vCPU paused by the hypervisor costs one try,
// not the minimum. What it does not remove: work of the program on the
// sibling of the core the kernel runs on, which slows the kernel like a
// neighbour's would.
const (
	refSteps   = 5000
	refTries   = 3
	refNominal = 80 * time.Microsecond // about the kernel's time on a 2-vCPU Intel Xeon VM
)

// refTable is the kernel's working set: 256 KiB, past a core's L1 and
// within its L2.
var refTable = func() []uint64 {
	t := make([]uint64, 1<<15)
	for i := range t {
		t[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	return t
}()

// refSink keeps the kernel's result alive.
var refSink uint64

// refKernel makes refSteps dependent reads and writes of refTable with a
// data-dependent branch each: the same amount of work on every call.
func refKernel() {
	x, s := uint64(0x5c15), uint64(0)
	mask := uint64(len(refTable) - 1)
	for i := 0; i < refSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := (x ^ s) & mask
		v := refTable[j]
		if v&1 == 0 {
			s += v >> 3
		} else {
			s ^= v
		}
		refTable[j] = v + s
	}
	refSink += s
}

// refTime is the fastest of refTries timed runs of the reference kernel.
func refTime() time.Duration {
	best := time.Duration(1<<63 - 1)
	for k := 0; k < refTries; k++ {
		t := time.Now()
		refKernel()
		if d := time.Since(t); d < best {
			best = d
		}
	}
	return best
}

// refScale is the factor that rescales a time measured while the kernel
// took ref to a core on which it takes refNominal (1 when ref is unknown).
func refScale(ref time.Duration) float64 {
	if ref <= 0 {
		return 1
	}
	return float64(refNominal) / float64(ref)
}
