// Package baseline implements the state-of-the-art runtime systems the
// paper compares against (Section 5.2):
//
//   - RISPP-like [6]: run-time greedy selection with a profit function
//     tuned to the millisecond reconfiguration times of fine-grained
//     fabrics (it mis-costs coarse-grained data paths), extended to use the
//     CG fabric, with intermediate-ISE execution (RISPP's signature
//     "upgrade" mechanism) but without monoCG-Extensions.
//   - Morpheus/4S-like [7][8]: loosely coupled architectures — a single
//     combined offline selection for all functional blocks, each kernel on
//     either a pure-FG or a pure-CG ISE (never multi-grained), configured
//     once at application start and never revised.
//   - Offline-optimal: optimal static multi-grained selection with full
//     knowledge of the trace, configured once at application start, never
//     revised at run time and without ECU steering (no intermediate ISEs,
//     no monoCG-Extension).
//   - Online-optimal: the mRTS flow with the exhaustive selection
//     algorithm; the quality yardstick of Fig. 9 (its selection overhead is
//     not charged to the timeline).
package baseline

import (
	"mrts/internal/arch"
	"mrts/internal/core"
	"mrts/internal/ecu"
	"mrts/internal/profit"
	"mrts/internal/selector"
)

// NewRISPPLike builds the RISPP-like runtime system.
func NewRISPPLike(cfg arch.Config) (*core.MRTS, error) {
	return core.New(cfg, core.Options{
		Model:          profit.FGTuned,
		ECU:            ecu.Options{DisableMonoCG: true},
		ChargeOverhead: true,
		Name:           "RISPP-like",
	})
}

// NewOnlineOptimal builds the online-optimal yardstick: mRTS with the
// exhaustive branch-and-bound selector. Its (enormous) selection overhead
// is not charged, since Fig. 9 compares pure selection quality.
func NewOnlineOptimal(cfg arch.Config) (*core.MRTS, error) {
	return core.New(cfg, core.Options{
		Select:         selector.Optimal,
		ChargeOverhead: false,
		Name:           "Online-optimal",
	})
}
