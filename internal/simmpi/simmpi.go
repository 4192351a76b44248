// Package simmpi is a discrete-event simulator for SPMD message-passing
// programs — the substrate that stands in for MPI on the paper's 1,920-rank
// application runs.
//
// Programs are bulk-synchronous SPMD: every rank executes the same sequence
// of operation *kinds* (compute, neighbour exchange, barrier, allreduce),
// though per-rank parameters (work amounts, peer lists) differ. The engine
// exploits that structure: it advances all ranks round by round and
// resolves each communication round exactly — a rank's Sendrecv completes
// when the slowest participating peer has arrived, a collective completes
// when the slowest rank in the communicator has arrived. This is the
// mechanism behind the paper's central performance observation: frequency
// inhomogeneity hurts unsynchronised codes through per-rank time spread
// (*DGEMM, Figure 2(iii)) and synchronised codes through wait time at
// exchanges (MHD, Figure 3).
//
// Per-rank accounting separates busy time (compute), transfer time (wire
// cost of messages) and wait time (blocked on slower peers), so experiments
// can reproduce both the execution-time plots and the cumulative
// MPI_Sendrecv-time plots.
package simmpi

import (
	"fmt"
	"math"

	"varpower/internal/telemetry"
	"varpower/internal/units"
)

// MPI runtime telemetry — the Vt side of the paper's measurements: how the
// simulated application's time splits into per-rank busy and wait
// (Figures 3 and 5 are distributions over exactly these quantities), and
// how much communication structure each run carried. Busy/wait are in
// *virtual* (simulated) seconds; counters are incremented once per round,
// not per rank, so the hot loop stays untouched.
var (
	mRoundsCompute   = roundCounter("compute")
	mRoundsSendrecv  = roundCounter("sendrecv")
	mRoundsBarrier   = roundCounter("barrier")
	mRoundsAllreduce = roundCounter("allreduce")
	mRankBusy        = telemetry.Default().Histogram("varpower_mpi_rank_busy_seconds",
		"Per-rank compute (busy) time per run, in simulated seconds.", telemetry.SecondBuckets, nil)
	mRankWait = telemetry.Default().Histogram("varpower_mpi_rank_wait_seconds",
		"Per-rank time blocked on slower peers per run, in simulated seconds — the paper's wait-time inhomogeneity signal.",
		telemetry.SecondBuckets, nil)
)

func roundCounter(kind string) *telemetry.Counter {
	return telemetry.Default().Counter("varpower_mpi_rounds_total",
		"SPMD operation rounds executed, by operation kind.", telemetry.Labels{"kind": kind})
}

// Op is one operation of a rank's program.
type Op interface{ isOp() }

// Compute models a local computation of Cycles frequency-scaled core cycles
// plus Bytes of memory traffic.
type Compute struct {
	Cycles float64
	Bytes  float64
}

// Sendrecv models a simultaneous exchange with each listed peer (the
// MPI_Sendrecv halo pattern); Bytes is the per-peer message size.
type Sendrecv struct {
	Peers []int
	Bytes float64
}

// Barrier blocks until every rank arrives.
type Barrier struct{}

// Allreduce is a barrier plus a tree reduction of Bytes payload.
type Allreduce struct {
	Bytes float64
}

func (Compute) isOp()   {}
func (Sendrecv) isOp()  {}
func (Barrier) isOp()   {}
func (Allreduce) isOp() {}

// Program generates the SPMD operation sequence. Round r of every rank must
// carry the same operation kind; parameters may differ per rank.
type Program interface {
	// Rounds is the number of operation rounds.
	Rounds() int
	// Round returns rank's operation for round r.
	Round(rank, r int) Op
}

// Model converts a rank's abstract work into time on whatever hardware the
// rank is running on.
type Model interface {
	// ComputeTime returns the wall time rank needs for the given work.
	ComputeTime(rank int, cycles, bytes float64) units.Seconds
}

// ModelFunc adapts a function to the Model interface.
type ModelFunc func(rank int, cycles, bytes float64) units.Seconds

// ComputeTime implements Model.
func (f ModelFunc) ComputeTime(rank int, cycles, bytes float64) units.Seconds {
	return f(rank, cycles, bytes)
}

// Network describes the interconnect cost model: Cost = Latency +
// Bytes/Bandwidth per message, with collectives paying a log2(size) latency
// tree.
type Network struct {
	Latency   units.Seconds
	Bandwidth float64 // bytes/s
}

// DefaultNetwork approximates the FDR InfiniBand fabric of HA8K.
var DefaultNetwork = Network{Latency: 2e-6, Bandwidth: 5e9}

// transfer returns the wire time for one message of the given size.
func (n Network) transfer(bytes float64) units.Seconds {
	if bytes <= 0 {
		return n.Latency
	}
	if n.Bandwidth <= 0 {
		return n.Latency
	}
	return n.Latency + units.Seconds(bytes/n.Bandwidth)
}

// collectiveCost returns the wire time of a size-rank tree collective.
func (n Network) collectiveCost(bytes float64, size int) units.Seconds {
	depth := math.Ceil(math.Log2(float64(size)))
	if depth < 1 {
		depth = 1
	}
	per := n.transfer(bytes)
	return units.Seconds(depth) * per
}

// RankStats is the per-rank timing breakdown of a run.
type RankStats struct {
	// End is the rank's virtual completion time (its death time, for a rank
	// that died).
	End units.Seconds
	// Busy is the time spent computing.
	Busy units.Seconds
	// Wait is the time spent blocked on slower peers (all op kinds).
	Wait units.Seconds
	// Xfer is the wire time of this rank's messages.
	Xfer units.Seconds
	// Sendrecv is the cumulative time inside Sendrecv calls (wait + wire) —
	// the quantity on the x-axis of the paper's Figure 3.
	Sendrecv units.Seconds
	// Dead reports that the rank died mid-run (fault injection); its stats
	// cover only the portion it survived.
	Dead bool
}

// Result is the outcome of a simulated run.
type Result struct {
	Ranks []RankStats
	// Elapsed is the application's completion time: the slowest *surviving*
	// rank (the slowest rank overall when none survive).
	Elapsed units.Seconds
}

// DefaultDeadTimeout is the collective/peer timeout survivors pay per
// communication round that involves a dead rank, standing in for an MPI
// fault-tolerance layer's failure detector (ULFM-style revoke+shrink).
const DefaultDeadTimeout = units.Seconds(1.0)

// FaultSpec injects rank deaths into a run. The simulated runtime detects a
// dead peer by timeout rather than deadlocking: a Sendrecv against a dead
// peer completes at the waiter's arrival plus Timeout, and a collective with
// any dead member completes at the slowest survivor's arrival plus Timeout.
// A nil *FaultSpec is the healthy run.
type FaultSpec struct {
	// DeadAt gives each rank's death time on the run's virtual clock; a
	// negative entry means the rank never dies. A rank dies when its local
	// clock crosses the death time during compute (the op is truncated); a
	// rank blocked in communication at its death time is torn down at the
	// next round boundary.
	DeadAt []units.Seconds
	// Timeout is the failure-detection latency (DefaultDeadTimeout if 0).
	Timeout units.Seconds
}

// faultState is the per-run mutable view of a FaultSpec.
type faultState struct {
	deadAt  []units.Seconds
	dead    []bool
	timeout units.Seconds
}

func newFaultState(fs *FaultSpec, size int) (*faultState, error) {
	if fs == nil {
		return nil, nil
	}
	if fs.DeadAt != nil && len(fs.DeadAt) != size {
		return nil, fmt.Errorf("simmpi: FaultSpec has %d death times for %d ranks", len(fs.DeadAt), size)
	}
	st := &faultState{
		deadAt:  fs.DeadAt,
		dead:    make([]bool, size),
		timeout: fs.Timeout,
	}
	if st.timeout <= 0 {
		st.timeout = DefaultDeadTimeout
	}
	if st.deadAt == nil {
		st.deadAt = make([]units.Seconds, size)
		for i := range st.deadAt {
			st.deadAt[i] = -1
		}
	}
	return st, nil
}

// dies reports whether the rank's death time is set and at or before t.
func (f *faultState) dies(rank int, t units.Seconds) bool {
	return !f.dead[rank] && f.deadAt[rank] >= 0 && t >= f.deadAt[rank]
}

// Run executes the program on size ranks against the model and network.
//
// A non-nil probe observes the run: every per-rank phase interval and every
// communication round's arrival spread is reported to it (nil probes
// nothing and costs one predictable branch per event). Probe calls are made
// from this serial loop in deterministic order; the probe cannot change the
// result.
//
// A non-nil fault specification makes listed ranks die at their appointed
// times, and the run finishes degraded instead of deadlocking. With a nil
// spec the engine takes the exact healthy path.
func Run(p Program, size int, m Model, net Network, probe Probe, fs *FaultSpec) (Result, error) {
	if size < 1 {
		return Result{}, fmt.Errorf("simmpi: size %d < 1", size)
	}
	fault, err := newFaultState(fs, size)
	if err != nil {
		return Result{}, err
	}
	// Each rank's End is its clock while the run advances. arrive snapshots
	// the clocks at a communication round; a one-rank run keeps it on the
	// stack, so its only allocation is the result.
	res := Result{Ranks: make([]RankStats, size)}
	var one [1]units.Seconds
	arrive := one[:]
	if size > 1 {
		arrive = make([]units.Seconds, size)
	}
	snapshot := func() {
		for rank := range arrive {
			arrive[rank] = res.Ranks[rank].End
		}
	}
	rounds := p.Rounds()

	for r := 0; r < rounds; r++ {
		// Tear down ranks whose death time passed while they were blocked in
		// communication: they stop participating from this round on.
		if fault != nil {
			for rank := 0; rank < size; rank++ {
				if fault.dies(rank, res.Ranks[rank].End) {
					fault.dead[rank] = true
				}
			}
		}
		proto := p.Round(0, r)
		switch proto.(type) {
		case Compute:
			mRoundsCompute.Inc()
			for rank := 0; rank < size; rank++ {
				if fault != nil && fault.dead[rank] {
					continue
				}
				op, ok := p.Round(rank, r).(Compute)
				if !ok {
					return Result{}, kindMismatch(r, rank, proto, p.Round(rank, r))
				}
				dt := m.ComputeTime(rank, op.Cycles, op.Bytes)
				if dt < 0 {
					return Result{}, fmt.Errorf("simmpi: negative compute time %v at rank %d round %d", dt, rank, r)
				}
				st := &res.Ranks[rank]
				if fault != nil && fault.dies(rank, st.End+dt) {
					// The rank dies mid-compute: truncate the op at the
					// death time and mark the rank down.
					if da := fault.deadAt[rank]; da > st.End {
						dt = da - st.End
					} else {
						dt = 0
					}
					fault.dead[rank] = true
				}
				if probe != nil && dt > 0 {
					probe.Interval(rank, r, ProbeCompute, st.End, st.End+dt)
				}
				st.End += dt
				st.Busy += dt
			}

		case Sendrecv:
			mRoundsSendrecv.Inc()
			snapshot()
			for rank := 0; rank < size; rank++ {
				if fault != nil && fault.dead[rank] {
					continue
				}
				op, ok := p.Round(rank, r).(Sendrecv)
				if !ok {
					return Result{}, kindMismatch(r, rank, proto, p.Round(rank, r))
				}
				start := arrive[rank]
				deadPeer := false
				for _, peer := range op.Peers {
					if peer < 0 || peer >= size {
						return Result{}, fmt.Errorf("simmpi: rank %d round %d has peer %d outside [0,%d)", rank, r, peer, size)
					}
					if fault != nil && fault.dead[peer] {
						deadPeer = true
						continue
					}
					if arrive[peer] > start {
						start = arrive[peer]
					}
				}
				if deadPeer {
					// A dead peer never arrives; the waiter's failure
					// detector fires Timeout after its own arrival.
					if to := arrive[rank] + fault.timeout; to > start {
						start = to
					}
				}
				xfer := net.transfer(op.Bytes)
				end := start + xfer
				st := &res.Ranks[rank]
				st.Wait += start - arrive[rank]
				st.Xfer += xfer
				st.Sendrecv += end - arrive[rank]
				st.End = end
				if probe != nil {
					if start > arrive[rank] {
						probe.Interval(rank, r, ProbeP2PWait, arrive[rank], start)
					}
					if xfer > 0 {
						probe.Interval(rank, r, ProbeXfer, start, end)
					}
				}
			}
			if probe != nil {
				straggler, earliest, latest := spread(arrive)
				probe.Collective(r, "sendrecv", straggler, earliest, latest)
			}

		case Barrier, Allreduce:
			kind, counter := "barrier", mRoundsBarrier
			if _, isAR := proto.(Allreduce); isAR {
				kind, counter = "allreduce", mRoundsAllreduce
			}
			counter.Inc()
			snapshot()
			var max units.Seconds
			anyDead := false
			for rank := 0; rank < size; rank++ {
				if fault != nil && fault.dead[rank] {
					anyDead = true
					continue
				}
				if arrive[rank] > max {
					max = arrive[rank]
				}
			}
			if anyDead {
				// The collective completes only after the survivors' failure
				// detector gives up on the dead members.
				max += fault.timeout
			}
			var cost units.Seconds
			if ar, ok := proto.(Allreduce); ok {
				cost = net.collectiveCost(ar.Bytes, size)
			} else {
				cost = net.collectiveCost(0, size)
			}
			for rank := 0; rank < size; rank++ {
				if fault != nil && fault.dead[rank] {
					continue
				}
				if !sameKind(proto, p.Round(rank, r)) {
					return Result{}, kindMismatch(r, rank, proto, p.Round(rank, r))
				}
				st := &res.Ranks[rank]
				st.Wait += max - arrive[rank]
				st.Xfer += cost
				st.End = max + cost
				if probe != nil {
					if max > arrive[rank] {
						probe.Interval(rank, r, ProbeCollectiveWait, arrive[rank], max)
					}
					if cost > 0 {
						probe.Interval(rank, r, ProbeXfer, max, max+cost)
					}
				}
			}
			if probe != nil {
				straggler, earliest, latest := spread(arrive)
				probe.Collective(r, kind, straggler, earliest, latest)
			}

		default:
			return Result{}, fmt.Errorf("simmpi: unknown op %T at round %d", proto, r)
		}
	}

	// A rank whose death time falls after its last op still counts as dead
	// only if the clock reached it; sweep once more so deaths scheduled
	// before the run's end are all reflected.
	if fault != nil {
		for rank := 0; rank < size; rank++ {
			if fault.dies(rank, res.Ranks[rank].End) {
				fault.dead[rank] = true
			}
		}
	}
	var maxAny units.Seconds
	for rank := range res.Ranks {
		st := &res.Ranks[rank]
		if fault != nil && fault.dead[rank] {
			st.Dead = true
		}
		if st.End > maxAny {
			maxAny = st.End
		}
		if !st.Dead && st.End > res.Elapsed {
			res.Elapsed = st.End
		}
		mRankBusy.Observe(float64(st.Busy))
		mRankWait.Observe(float64(st.Wait))
	}
	if res.Elapsed == 0 && fault != nil {
		// Every rank died: report the last death as completion.
		res.Elapsed = maxAny
	}
	return res, nil
}

// sameKind reports whether two ops share a concrete kind. It is called once
// per rank in collective rounds, so it must not allocate (the previous
// fmt.Sprintf("%T") implementation was ~5% of all simulation allocations).
func sameKind(a, b Op) bool {
	switch a.(type) {
	case Compute:
		_, ok := b.(Compute)
		return ok
	case Sendrecv:
		_, ok := b.(Sendrecv)
		return ok
	case Barrier:
		_, ok := b.(Barrier)
		return ok
	case Allreduce:
		_, ok := b.(Allreduce)
		return ok
	default:
		return false
	}
}

func kindMismatch(round, rank int, want, got Op) error {
	return fmt.Errorf("simmpi: SPMD violation at round %d: rank %d issues %T while rank 0 issues %T",
		round, rank, got, want)
}
