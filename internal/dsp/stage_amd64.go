package dsp

// fusedStageAVX2 is fusedStageGo two k at a time in YMM registers (see
// stage_amd64.s). Its contract: h = len(t1) is even, len(x) is a
// multiple of 4h, and len(t2) ≥ h.
//
//go:noescape
func fusedStageAVX2(x, t1, t2 []complex128, si float64)

// recordDemeanAVX2 is demeanScatterGo one block at a time in YMM
// registers (see stage_amd64.s), with the same contract.
//
//go:noescape
func recordDemeanAVX2(zx, zy, zz []complex128, x, y, z []int16, slot []int32, scale, mx, my, mz float64) (sx, sy, sz float64)

// recordPowerAVX2 is recordPowerGo over k = 1 … count, two k at a time
// in YMM registers (see stage_amd64.s). Its contract: count is even,
// at most ⌈m/2⌉−1 for m = len(zx) = len(zy) = len(zz); len(psd) = 2m,
// and tw and rot are the plan's.
//
//go:noescape
func recordPowerAVX2(psd []float64, zx, zy, zz, tw, rot []complex128, inv float64, count int)

// hasAVX2 reports whether the CPU runs AVX2 and the OS saves the YMM
// state: CPUID.1:ECX OSXSAVE (27) and AVX (28), XCR0 SSE and AVX state
// (bits 1-2), CPUID.7.0:EBX AVX2 (5).
func hasAVX2() bool

func init() {
	if hasAVX2() {
		fusedStageAsm = fusedStageAVX2
		recordDemeanAsm = recordDemeanAVX2
		recordPowerAsm = recordPowerAVX2
	}
}
