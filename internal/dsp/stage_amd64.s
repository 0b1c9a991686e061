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

// func recordDemeanAVX2(zx, zy, zz []complex128, x, y, z []int16, slot []int32, scale, mx, my, mz float64) (sx, sy, sz float64)
//
// demeanScatterGo one four-sample block per iteration. Each axis's
// block is converted, scaled and demeaned four samples wide (one YMM
// register per axis), its squares transposed so that one register
// holds sample i of x, y and z, and those four registers added to the
// sums (sx, sy, sz, unused) in sample order: the three chains of the
// Go loop, lane by lane. VPERMPD orders each block as (d0, d2, d3, d1)
// for its two slots. Every product is rounded before its add (no
// FMA), so the sums and slots are the Go loop's bits.
TEXT ·recordDemeanAVX2(SB), NOSPLIT, $0-224
	MOVQ zx_base+0(FP), R8
	MOVQ zy_base+24(FP), R9
	MOVQ zz_base+48(FP), R10
	MOVQ x_base+72(FP), SI
	MOVQ y_base+96(FP), DI
	MOVQ z_base+120(FP), DX
	MOVQ slot_base+144(FP), BX
	MOVQ slot_len+152(FP), CX
	VBROADCASTSD scale+168(FP), Y15
	VBROADCASTSD mx+176(FP), Y14
	VBROADCASTSD my+184(FP), Y13
	VBROADCASTSD mz+192(FP), Y12
	VXORPD Y11, Y11, Y11      // (sx, sy, sz, unused)
	LEAQ (BX)(CX*4), CX       // end of slot

demean:
	CMPQ BX, CX
	JAE  demeaned
	VPMOVSXWD (SI), X0
	VPMOVSXWD (DI), X1
	VPMOVSXWD (DX), X2
	VCVTDQ2PD X0, Y0
	VCVTDQ2PD X1, Y1
	VCVTDQ2PD X2, Y2
	VMULPD    Y15, Y0, Y0
	VMULPD    Y15, Y1, Y1
	VMULPD    Y15, Y2, Y2
	VSUBPD    Y14, Y0, Y0     // x block − mx: (d0, d1, d2, d3)
	VSUBPD    Y13, Y1, Y1
	VSUBPD    Y12, Y2, Y2
	VMULPD    Y0, Y0, Y3      // squares
	VMULPD    Y1, Y1, Y4
	VMULPD    Y2, Y2, Y5

	// Transpose: sample i of x, y and z into one register.
	VUNPCKLPD  Y4, Y3, Y6     // (qx0, qy0, qx2, qy2)
	VUNPCKHPD  Y4, Y3, Y7     // (qx1, qy1, qx3, qy3)
	VPERMILPD  $5, Y5, Y8     // (qz1, qz0, qz3, qz2)
	VPERM2F128 $0x20, Y5, Y6, Y3 // (qx0, qy0, qz0, ·)
	VPERM2F128 $0x20, Y8, Y7, Y4 // (qx1, qy1, qz1, ·)
	VPERM2F128 $0x31, Y5, Y6, Y5 // (qx2, qy2, qz2, ·)
	VPERM2F128 $0x31, Y8, Y7, Y6 // (qx3, qy3, qz3, ·)
	VADDPD     Y3, Y11, Y11
	VADDPD     Y4, Y11, Y11
	VADDPD     Y5, Y11, Y11
	VADDPD     Y6, Y11, Y11

	MOVLQSX (BX), AX
	MOVLQSX 4(BX), R11
	SHLQ    $4, AX
	SHLQ    $4, R11
	VPERMPD $0x78, Y0, Y0     // (d0, d2, d3, d1)
	VPERMPD $0x78, Y1, Y1
	VPERMPD $0x78, Y2, Y2
	VMOVUPD X0, (R8)(AX*1)
	VEXTRACTF128 $1, Y0, (R8)(R11*1)
	VMOVUPD X1, (R9)(AX*1)
	VEXTRACTF128 $1, Y1, (R9)(R11*1)
	VMOVUPD X2, (R10)(AX*1)
	VEXTRACTF128 $1, Y2, (R10)(R11*1)

	ADDQ $8, SI
	ADDQ $8, DI
	ADDQ $8, DX
	ADDQ $8, BX
	JMP  demean

demeaned:
	VMOVLPD X11, sx+200(FP)
	VMOVHPD X11, sy+208(FP)
	VEXTRACTF128 $1, Y11, X0
	VMOVLPD X0, sz+216(FP)
	VZEROUPPER
	RET

// func recordPowerAVX2(psd []float64, zx, zy, zz, tw, rot []complex128, inv float64, count int)
//
// recordPowerGo over k = 1 … count (count even), two k per iteration:
// each YMM register holds the values at k and k+1, or at j = m−k and
// m−k−1 (loaded from m−k−1 and lane-swapped by VPERMPD), as
// (re, im, re, im). The split's a ± b* are blends of a + b and a − b;
// each complex product is VMULPD by (wr, wr) and by (wi, wi) of the
// lane-swapped operand, then VADDSUBPD; no FMA. The axes' powers are
// added in the order x, y, z, and VPERMPD lays each sum out for its
// four two-bin stores, so every bin is the Go pass's bits.
TEXT ·recordPowerAVX2(SB), NOSPLIT, $0-160
	MOVQ psd_base+0(FP), R11
	MOVQ zx_base+24(FP), R8
	MOVQ zx_len+32(FP), CX    // m
	MOVQ zy_base+48(FP), R9
	MOVQ zz_base+72(FP), R10
	MOVQ tw_base+96(FP), SI
	MOVQ rot_base+120(FP), DI
	VBROADCASTSD inv+144(FP), Y15
	MOVQ count+152(FP), R13
	LEAQ (R11)(CX*8), R12     // &psd[m]
	SUBQ $2, CX
	SHLQ $3, CX               // 8(m−k−1), k = 1
	MOVQ $8, DX               // 8k
	INCQ R13
	SHLQ $3, R13              // 8(count+1): the end of k

power:
	CMPQ DX, R13
	JAE  powered
	VMOVUPD   (SI)(DX*2), Y0
	VPERMILPD $15, Y0, Y1     // wi
	VMOVDDUP  Y0, Y0          // wr
	VMOVUPD   (DI)(DX*2), Y2
	VPERMILPD $15, Y2, Y3     // rot[k] imaginary parts
	VMOVDDUP  Y2, Y2          // rot[k] real parts
	VPERMPD   $0x4e, (DI)(CX*2), Y4
	VPERMILPD $15, Y4, Y5     // rot[j] imaginary parts
	VMOVDDUP  Y4, Y4          // rot[j] real parts

#define AXIS_POWER(Z) \
	VMOVUPD   (Z)(DX*2), Y6            /* a = Z[k] */ \
	VPERMPD   $0x4e, (Z)(CX*2), Y7     /* b = Z[j] */ \
	VADDPD    Y7, Y6, Y8               /* a + b */ \
	VSUBPD    Y7, Y6, Y6               /* a − b */ \
	VBLENDPD  $0x0a, Y6, Y8, Y7        /* e = a + b* */ \
	VBLENDPD  $0x0a, Y8, Y6, Y6        /* d = a − b* */ \
	VPERMILPD $5, Y6, Y8 \
	VMULPD    Y0, Y6, Y6 \
	VMULPD    Y1, Y8, Y8 \
	VADDSUBPD Y8, Y6, Y6               /* g = w·d */ \
	VADDPD    Y6, Y7, Y8               /* 2X[k] = e + g */ \
	VSUBPD    Y6, Y7, Y9               /* e − g */ \
	VSUBPD    Y7, Y6, Y6               /* g − e */ \
	VBLENDPD  $0x0a, Y6, Y9, Y9        /* 2X[j] = (e − g)* */ \
	VPERMILPD $5, Y8, Y6 \
	VMULPD    Y2, Y8, Y8 \
	VMULPD    Y3, Y6, Y6 \
	VADDSUBPD Y6, Y8, Y8               /* rot[k]·2X[k] */ \
	VPERMILPD $5, Y9, Y7 \
	VMULPD    Y4, Y9, Y9 \
	VMULPD    Y5, Y7, Y7 \
	VADDSUBPD Y7, Y9, Y9               /* rot[j]·2X[j] */ \
	VMULPD    Y8, Y8, Y8 \
	VMULPD    Y9, Y9, Y9

	AXIS_POWER(R8)
	VMULPD Y15, Y8, Y12       // x's powers at k, n−k, k+1, n−k−1
	VMULPD Y15, Y9, Y13       // and at j, n−j, j−1, n−j+1
	AXIS_POWER(R9)
	VMULPD Y15, Y8, Y8
	VMULPD Y15, Y9, Y9
	VADDPD Y8, Y12, Y12
	VADDPD Y9, Y13, Y13
	AXIS_POWER(R10)
	VMULPD Y15, Y8, Y8
	VMULPD Y15, Y9, Y9
	VADDPD Y8, Y12, Y12
	VADDPD Y9, Y13, Y13

	VPERMPD $0x78, Y12, Y12   // (k, k+1, n−k−1, n−k)
	VPERMPD $0xd2, Y13, Y13   // (j−1, j, n−j, n−j+1)
	VMOVUPD X12, (R11)(DX*1)
	VEXTRACTF128 $1, Y12, (R12)(CX*1)
	VMOVUPD X13, (R11)(CX*1)
	VEXTRACTF128 $1, Y13, (R12)(DX*1)

	ADDQ $16, DX
	SUBQ $16, CX
	JMP  power

powered:
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
