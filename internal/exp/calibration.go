package exp

import (
	"fmt"
	"io"

	"mrts/internal/arch"
	"mrts/internal/cgedpe"
	"mrts/internal/fgfabric"
	"mrts/internal/h264"
	"mrts/internal/ise"
	"mrts/internal/iselib"
	"mrts/internal/leon"
)

// cycles drops a measurement's computed value.
func cycles[T any](_ T, cy int64, err error) (int64, error) { return cy, err }

// Calibration runs the encoder micro-kernels on the functional hardware
// models — the LEON-class RISC core (internal/leon) and a CG-EDPE of the
// coarse-grained fabric (internal/cgedpe) — and writes the measured cycle
// counts next to the ISE library's latency constants, one row per kernel
// and target, followed by the SAD speedup both models measured and the
// fine-grained fabric's bitstream streaming time. This is the calibration
// evidence behind the latencies the runtime system selects on. It fails if
// the models disagree on the SAD.
func Calibration(w io.Writer) error {
	app, err := iselib.NewApplication()
	if err != nil {
		return err
	}
	risc := func(k string) arch.Cycles { return app.Kernel(ise.KernelID(k)).RISCLatency }
	cg := func(k string) arch.Cycles { return app.Kernel(ise.KernelID(k)).ISEByID(k + ".cg1").FullLatency() }

	cur := make([]byte, 256)
	ref := make([]byte, 256)
	for i := range cur {
		cur[i] = byte(i * 7)
		ref[i] = byte(i*5 + 3)
	}
	coeffs := [16]int32{120, -55, 910, 3, -4, 0, 66, -2000, 8, 0, 1, -1, 300, -300, 12, 99}
	var blk, resid [16]int32
	for i := range blk {
		blk[i] = int32(i*13 - 90)
		resid[i] = int32(i*7 - 50)
	}
	filt := [4][4]uint8{
		{100, 100, 104, 104}, {100, 101, 105, 104},
		{99, 100, 103, 104}, {101, 100, 105, 106},
	}

	var leonSAD, cgSAD int32
	var leonSADCycles, cgSADCycles int64
	rows := []struct {
		name    string
		measure func() (int64, error)
		library arch.Cycles
	}{
		{"sad @ LEON", func() (cy int64, err error) {
			leonSAD, cy, err = leon.MeasureSAD(cur, ref)
			leonSADCycles = cy
			return cy, err
		}, risc(h264.KernelSAD)},
		{"quant @ LEON", func() (int64, error) { return cycles(leon.MeasureQuant(coeffs, 13107, 43690, 17)) }, risc(h264.KernelQuant)},
		{"bs @ LEON", func() (int64, error) { return cycles(leon.MeasureBS(false, false, false, false, 1, 1)) }, risc(h264.KernelBS)},
		{"dct @ LEON", func() (int64, error) { return cycles(leon.MeasureDCT(blk)) }, risc(h264.KernelDCT)},
		{"filt @ LEON", func() (int64, error) { return cycles(leon.MeasureFilt(filt, 20, 6, 2)) }, risc(h264.KernelFilt)},
		{"sad @ CG-EDPE", func() (cy int64, err error) {
			cgSAD, cy, err = cgedpe.MeasureSAD(cur, ref)
			cgSADCycles = cy
			return cy, err
		}, cg(h264.KernelSAD)},
		{"dct @ CG-EDPE", func() (int64, error) { return cycles(cgedpe.MeasureDCT(blk)) }, cg(h264.KernelDCT)},
		{"quant @ CG-EDPE", func() (int64, error) { return cycles(cgedpe.MeasureQuant(coeffs, 13107, 43690, 17)) }, cg(h264.KernelQuant)},
		{"satd @ CG-EDPE", func() (int64, error) { return cycles(cgedpe.MeasureSATD(resid)) }, cg(h264.KernelSATD)},
	}

	fmt.Fprintln(w, "Micro-kernel calibration: functional hardware models vs. ISE library")
	fmt.Fprintf(w, "%-22s %14s %14s %8s\n", "kernel / target", "measured (cy)", "library (cy)", "ratio")
	for _, r := range rows {
		measured, err := r.measure()
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		fmt.Fprintf(w, "%-22s %14d %14d %8.2f\n", r.name, measured, r.library, float64(r.library)/float64(measured))
	}
	if leonSAD != cgSAD {
		return fmt.Errorf("models disagree on SAD: %d vs %d", leonSAD, cgSAD)
	}
	fmt.Fprintf(w, "\nmeasured SAD speedup on the CG fabric: %.1fx (both models agree on the value %d)\n",
		float64(leonSADCycles)/float64(cgSADCycles), leonSAD)
	fmt.Fprintf(w, "\nFG configuration path: a %d-byte partial bitstream at %d KB/s streams in %.2f ms (constant: %.2f ms)\n",
		fgfabric.BytesPerDataPath, arch.FGReconfigBandwidthKBps,
		fgfabric.StreamCycles(fgfabric.BytesPerDataPath).Millis(),
		arch.FGReconfigCycles.Millis())
	return nil
}
