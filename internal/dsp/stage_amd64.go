package dsp

// fusedStageAVX2 is fusedStageGo two k at a time in YMM registers (see
// stage_amd64.s). Its contract: h = len(t1) is even, len(x) is a
// multiple of 4h, and len(t2) ≥ h.
//
//go:noescape
func fusedStageAVX2(x, t1, t2 []complex128, si float64)

// hasAVX2 reports whether the CPU runs AVX2 and the OS saves the YMM
// state: CPUID.1:ECX OSXSAVE (27) and AVX (28), XCR0 SSE and AVX state
// (bits 1-2), CPUID.7.0:EBX AVX2 (5).
func hasAVX2() bool

func init() {
	if hasAVX2() {
		fusedStageAsm = fusedStageAVX2
	}
}
