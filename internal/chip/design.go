// Package chip implements a circuit-behavioural model of a DDR4 DRAM chip,
// the substitute for the real off-the-shelf chips the HiRA paper
// characterizes with a SoftMC FPGA platform (§4).
//
// The model is deliberately pitched at the level the paper's experiments
// observe: it does not simulate analog voltages, but it implements the
// electrical *preconditions* the paper identifies for a HiRA operation to
// succeed, each with design- and process-induced variation:
//
//   - the sense amplifiers of a row must be enabled before the interrupting
//     precharge arrives (lower bound on t1);
//   - the precharge must arrive before the row's local row buffer is
//     connected to the bank I/O (upper bound on t1);
//   - the second activation must interrupt the precharge before the first
//     row's wordline is disabled (upper bound on t2);
//   - the first row's buffer must have disconnected from the bank I/O
//     (lower bound on t2); and
//   - the two rows must lie in electrically isolated subarrays — subarrays
//     that share no bitline or sense amplifier (the paper's Fig. 1
//     open-bitline structure), captured here as a design-level isolation
//     graph that is identical across banks (the paper's §4.4.1 finding).
//
// Charge behaviour: a row closed before its restoration completes loses
// data; an activation that stays open long enough fully restores the row
// and resets most of its accumulated RowHammer disturbance (with a small
// per-row residual, which is what makes the measured RowHammer threshold
// under HiRA ~1.9x rather than exactly 2x, matching §4.3).
//
// Everything is deterministic given (Design, seed): the same virtual
// module always produces the same coverage and RowHammer results.
package chip

// Design captures the manufacturer- and die-specific electrical
// characteristics of a DRAM chip family. All time-valued fields are in
// nanoseconds (they parameterize distributions, not the simulation clock).
type Design struct {
	// Name identifies the design, e.g. "SK Hynix F-die".
	Name string

	// SupportsHiRA is false for designs that ignore or mis-handle the
	// grossly timing-violating HiRA sequence. The paper observed no
	// successful HiRA operation on 40 Micron and 40 Samsung chips (§12)
	// and hypothesizes those chips do not keep the first row's wordline
	// asserted across the interrupted precharge; the model realizes that
	// hypothesis by treating the early precharge as a real precharge,
	// which cuts the first row's restoration short and corrupts it.
	SupportsHiRA bool

	// CoverageMean/CoverageSigma parameterize the per-subarray isolation
	// probability: the fraction of other subarrays in the bank that are
	// electrically isolated from a given subarray. Table 4 measures this
	// "HiRA coverage" at 25-38% for working modules.
	CoverageMean, CoverageSigma float64

	// SAEnable{Mean,Sigma} is the time after ACT at which a row's sense
	// amplifiers are reliably enabled: the lower bound on t1.
	SAEnableMean, SAEnableSigma float64
	// IOConnect{Mean,Sigma} is the time after ACT at which the local row
	// buffer connects to the bank I/O; a precharge arriving later can no
	// longer be hidden: the upper bound on t1.
	IOConnectMean, IOConnectSigma float64
	// IODisconnect{Mean,Sigma} is the time after PRE at which the local
	// row buffer disconnects from the bank I/O: the lower bound on t2.
	IODisconnectMean, IODisconnectSigma float64
	// WLHold{Mean,Sigma} is the time after PRE at which the open row's
	// wordline is disabled if the precharge is not interrupted: the upper
	// bound on t2.
	WLHoldMean, WLHoldSigma float64

	// RestoreNeed{Mean,Sigma} is the wordline-on duration required to
	// fully restore a row's charge (comfortably below tRAS = 32 ns).
	RestoreNeedMean, RestoreNeedSigma float64

	// NRH{Mean,Sigma} parameterize the per-row RowHammer threshold
	// distribution (Fig. 5a: 10K-80K, mean 27.2K).
	NRHMean, NRHSigma float64

	// Residual{Mean,Sigma} is the fraction of accumulated RowHammer
	// disturbance that survives a full charge restoration of the victim
	// row. The measured "normalized NRH" under mid-hammer refresh is
	// 2/(1+residual) (§4.3: average 1.9x, range ~1.1-2.6x).
	ResidualMean, ResidualSigma float64
	// ResidualBankSigma adds a per-bank offset to the residual, producing
	// Fig. 6's 1.80-1.97x spread of bank-average normalized NRH.
	ResidualBankSigma float64
}

// SKHynixLike returns the baseline design for the chips on which the paper
// demonstrates HiRA, with the given average HiRA coverage (Table 4 ranges
// from 25.0% on the B-die modules to 38.4% on F-die ones).
func SKHynixLike(name string, coverageMean float64) Design {
	return Design{
		Name:              name,
		SupportsHiRA:      true,
		CoverageMean:      coverageMean,
		CoverageSigma:     0.030,
		SAEnableMean:      1.6,
		SAEnableSigma:     0.40,
		IOConnectMean:     5.8,
		IOConnectSigma:    0.45,
		IODisconnectMean:  1.15,
		IODisconnectSigma: 0.30,
		WLHoldMean:        6.8,
		WLHoldSigma:       0.50,
		RestoreNeedMean:   24,
		RestoreNeedSigma:  2.5,
		NRHMean:           27200,
		NRHSigma:          13000,
		ResidualMean:      0.052,
		ResidualSigma:     0.075,
		ResidualBankSigma: 0.015,
	}
}

// NonHiRALike returns a design standing in for the Micron/Samsung chips on
// which the paper observed no successful HiRA operation (§12).
func NonHiRALike(name string) Design {
	d := SKHynixLike(name, 0)
	d.SupportsHiRA = false
	return d
}

// Geometry describes the portion of chip structure the model needs.
type Geometry struct {
	Banks            int
	SubarraysPerBank int
	RowsPerSubarray  int
}

// RowsPerBank returns the number of rows in each bank.
func (g Geometry) RowsPerBank() int { return g.SubarraysPerBank * g.RowsPerSubarray }
