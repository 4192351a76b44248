package simmpi

import "varpower/internal/units"

// Probe observes a DES execution interval by interval — the hook the
// flight recorder (internal/flight) uses to capture per-rank phase
// timelines and per-round straggler information without the engine knowing
// anything about recording.
//
// The engine invokes a probe only from its serial round loop, in a
// deterministic order for a given program and model, so implementations
// need not be concurrency-safe and recorded output is reproducible at any
// caller fan-out. Probes must treat every argument as read-only; they
// cannot influence the simulation.
type Probe interface {
	// Interval reports that rank spent [start, end) in the given phase
	// during SPMD round. Zero-length intervals are not reported.
	Interval(rank, round int, phase ProbePhase, start, end units.Seconds)

	// Collective reports a communication round's arrival spread: the
	// straggler rank arrived last (lowest rank wins ties) at time latest,
	// the fastest participant at earliest. Emitted for every Sendrecv,
	// Barrier and Allreduce round; kind is "sendrecv", "barrier" or
	// "allreduce". For Sendrecv rounds the straggler is the round's
	// globally latest arrival — the rank every transitively coupled
	// neighbourhood ultimately waits on.
	Collective(round int, kind string, straggler int, earliest, latest units.Seconds)
}

// ProbePhase classifies a probed interval.
type ProbePhase uint8

// Probed phases.
const (
	// ProbeCompute: local computation.
	ProbeCompute ProbePhase = iota
	// ProbeP2PWait: blocked on a peer in a point-to-point exchange.
	ProbeP2PWait
	// ProbeCollectiveWait: blocked at a barrier/allreduce.
	ProbeCollectiveWait
	// ProbeXfer: wire time of the rank's messages.
	ProbeXfer
)

// spread returns a communication round's arrival spread over the given
// per-rank arrival times: the straggler (argmax, lowest rank on ties) and
// the earliest and latest arrivals — the arguments Probe.Collective wants.
func spread(arrive []units.Seconds) (straggler int, earliest, latest units.Seconds) {
	earliest = arrive[0]
	latest = arrive[0]
	for rank, at := range arrive {
		if at < earliest {
			earliest = at
		}
		if at > latest {
			latest = at
			straggler = rank
		}
	}
	return straggler, earliest, latest
}

// String returns the stable name of the phase.
func (p ProbePhase) String() string {
	switch p {
	case ProbeCompute:
		return "compute"
	case ProbeP2PWait:
		return "p2p-wait"
	case ProbeCollectiveWait:
		return "collective-wait"
	case ProbeXfer:
		return "xfer"
	}
	return "unknown"
}
