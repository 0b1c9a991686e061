#include "textflag.h"

// func fusedStageAVX2(x, t1, t2 []complex128, si float64)
//
// fusedStageGo two k at a time: each YMM register holds the complex
// values at k and k+1 as (re, im, re, im). A product a·w is
// a·(wr, wr) addsub swap(a)·(wi, wi), each multiply rounded before the
// add as the Go stage's are (no FMA), so the output is the same bits.
// The ∓i rotation of the upper stage's second half is a lane swap times
// (−si, si).
TEXT ·fusedStageAVX2(SB), NOSPLIT, $0-80
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	MOVQ t1_base+24(FP), SI
	MOVQ t1_len+32(FP), R8
	MOVQ t2_base+48(FP), DX
	VBROADCASTSD si+72(FP), Y14
	VXORPD Y13, Y13, Y13
	VADDSUBPD Y14, Y13, Y14   // (−si, si, −si, si); si is ±1, so exact
	SHLQ $4, R8               // h in bytes: the distance between quarters
	SHLQ $4, CX
	ADDQ DI, CX               // end of x

block:
	CMPQ DI, CX
	JAE  done
	LEAQ (DI)(R8*1), R10      // s1
	LEAQ (R10)(R8*1), R11     // s2
	LEAQ (R11)(R8*1), R12     // s3
	XORQ AX, AX               // 16·k

loop:
	// bt = w1·s1[k], dt = w1·s3[k]
	VMOVUPD   (SI)(AX*1), Y0
	VMOVDDUP  Y0, Y1          // w1r
	VPERMILPD $15, Y0, Y2     // w1i
	VMOVUPD   (R10)(AX*1), Y3
	VMOVUPD   (R12)(AX*1), Y4
	VPERMILPD $5, Y3, Y5
	VPERMILPD $5, Y4, Y6
	VMULPD    Y1, Y3, Y3
	VMULPD    Y1, Y4, Y4
	VMULPD    Y2, Y5, Y5
	VMULPD    Y2, Y6, Y6
	VADDSUBPD Y5, Y3, Y3      // bt
	VADDSUBPD Y6, Y4, Y4      // dt

	// a1, b1 = s0[k] ± bt; c1, d1 = s2[k] ± dt
	VMOVUPD (DI)(AX*1), Y7
	VMOVUPD (R11)(AX*1), Y8
	VADDPD  Y3, Y7, Y9        // a1
	VSUBPD  Y3, Y7, Y10       // b1
	VADDPD  Y4, Y8, Y11       // c1
	VSUBPD  Y4, Y8, Y12       // d1

	// u = w2·c1, q = (∓i)·w2·d1
	VMOVUPD   (DX)(AX*1), Y0
	VMOVDDUP  Y0, Y1          // w2r
	VPERMILPD $15, Y0, Y2     // w2i
	VPERMILPD $5, Y11, Y3
	VPERMILPD $5, Y12, Y4
	VMULPD    Y1, Y11, Y11
	VMULPD    Y1, Y12, Y12
	VMULPD    Y2, Y3, Y3
	VMULPD    Y2, Y4, Y4
	VADDSUBPD Y3, Y11, Y11    // u
	VADDSUBPD Y4, Y12, Y12
	VPERMILPD $5, Y12, Y12
	VMULPD    Y14, Y12, Y12   // q

	VADDPD  Y11, Y9, Y0
	VSUBPD  Y11, Y9, Y1
	VADDPD  Y12, Y10, Y2
	VSUBPD  Y12, Y10, Y3
	VMOVUPD Y0, (DI)(AX*1)    // a1 + u
	VMOVUPD Y1, (R11)(AX*1)   // a1 − u
	VMOVUPD Y2, (R10)(AX*1)   // b1 + q
	VMOVUPD Y3, (R12)(AX*1)   // b1 − q

	ADDQ $32, AX
	CMPQ AX, R8
	JB   loop

	LEAQ (R12)(R8*1), DI      // the next group
	JMP  block

done:
	VZEROUPPER
	RET

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	MOVL $0, AX
	CPUID
	CMPL AX, $7               // the highest basic leaf must reach 7
	JB   no
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	ANDL $0x18000000, CX      // OSXSAVE and AVX
	CMPL CX, $0x18000000
	JNE  no
	MOVL $0, CX
	XGETBV
	ANDL $6, AX               // XCR0: SSE and AVX state enabled
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	BTL  $5, BX               // AVX2
	JCC  no
	MOVB $1, ret+0(FP)

no:
	RET
