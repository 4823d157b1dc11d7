#include "textflag.h"

// func geluPairs(out, x []float32) int
//
// GELU's fast path (gelu.go) on two inputs per instruction. Each pair is
// widened to float64 (CVTPS2PD) and range-tested with ordered compares, so
// NaN fails; the interval index k and z come from CVTTPD2PL and CVTPL2PD;
// the seven coefficients of each element's table row are loaded as pairs
// (MOVSD low lane, MOVHPD high lane) and the Estrin evaluation performs the
// Go expression's operations in the Go expression's order, one rounding per
// operation and no fused multiply-add. y−geluEps and y+geluEps are narrowed
// with CVTPD2PS and compared with CMPPS. The kernel stops before the first
// pair that fails either test, or before a last odd element, and returns
// how many elements it wrote; the caller evaluates the next one or two with
// geluGeneric and calls again. Both inputs of a pair are read before either
// output is written, so out may alias x.
//
// SI x, DI out, CX pairs left, AX elements written, R8 &geluTab, BX/DX the
// table rows of the low/high element. X10–X15 hold the constants, each in
// both lanes.
TEXT ·geluPairs(SB), NOSPLIT, $0-56
	MOVQ out_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	SHRQ $1, CX
	XORQ AX, AX
	LEAQ ·geluTab(SB), R8

	MOVQ     $0x7fffffffffffffff, DX
	MOVQ     DX, X15                // sign-clear mask
	UNPCKLPD X15, X15
	MOVSD    $0.0009765625, X14     // geluMin = 1/1024
	UNPCKLPD X14, X14
	MOVSD    $8.0, X13              // geluMax
	UNPCKLPD X13, X13
	MOVSD    $32.0, X12             // geluPerUnit
	UNPCKLPD X12, X12
	MOVSD    $1.0, X11
	UNPCKLPD X11, X11
	MOVSD    $2e-13, X10            // geluEps
	UNPCKLPD X10, X10

pair:
	TESTQ CX, CX
	JZ    done

	// geluMin ≤ |u| < geluMax in both lanes, else stop.
	CVTPS2PD (SI), X0 // u
	MOVAPD   X0, X1
	ANDPD    X15, X1  // |u|
	MOVAPD   X14, X2
	CMPPD    X1, X2, 2 // geluMin ≤ |u| (LE, ordered)
	CMPPD    X13, X1, 1 // |u| < geluMax (LT, ordered)
	ANDPD    X1, X2
	MOVMSKPD X2, DX
	CMPQ     DX, $3
	JNE      done

	// t = (u + geluMax)·geluPerUnit, k = int(t), z = 2·(t − k) − 1.
	ADDPD     X13, X0
	MULPD     X12, X0   // t
	CVTTPD2PL X0, X1    // k (int32 pair)
	MOVQ      X1, DX
	CVTPL2PD  X1, X1
	SUBPD     X1, X0
	ADDPD     X0, X0    // 2·(t − k), exactly
	SUBPD     X11, X0   // z
	MOVL      DX, BX
	SHRQ      $32, DX
	IMULQ     $56, BX   // sizeof(geluTab[k])
	IMULQ     $56, DX
	ADDQ      R8, BX
	ADDQ      R8, DX

	// y := (c0 + c1·z) + (c2 + c3·z)·z2 + ((c4 + c5·z) + c6·z2)·(z2·z2)
	MOVAPD X0, X1
	MULPD  X1, X1      // z2
	MOVSD  8(BX), X2
	MOVHPD 8(DX), X2
	MULPD  X0, X2
	MOVSD  0(BX), X3
	MOVHPD 0(DX), X3
	ADDPD  X3, X2      // c0 + c1·z
	MOVSD  24(BX), X3
	MOVHPD 24(DX), X3
	MULPD  X0, X3
	MOVSD  16(BX), X4
	MOVHPD 16(DX), X4
	ADDPD  X4, X3      // c2 + c3·z
	MOVSD  40(BX), X4
	MOVHPD 40(DX), X4
	MULPD  X0, X4
	MOVSD  32(BX), X5
	MOVHPD 32(DX), X5
	ADDPD  X5, X4      // c4 + c5·z
	MOVSD  48(BX), X5
	MOVHPD 48(DX), X5
	MULPD  X1, X5
	ADDPD  X5, X4      // (c4 + c5·z) + c6·z2
	MULPD  X1, X3
	ADDPD  X3, X2      // (c0 + c1·z) + (c2 + c3·z)·z2
	MULPD  X1, X1      // z2·z2
	MULPD  X1, X4
	ADDPD  X4, X2      // y

	// float32(y − geluEps) == float32(y + geluEps) in both lanes, else stop.
	MOVAPD   X2, X3
	SUBPD    X10, X2
	ADDPD    X10, X3
	CVTPD2PS X2, X2
	CVTPD2PS X3, X3
	MOVAPS   X2, X4
	CMPPS    X3, X4, 0 // EQ, ordered
	MOVMSKPS X4, DX
	ANDQ     $3, DX
	CMPQ     DX, $3
	JNE      done

	MOVSD X2, (DI)
	ADDQ  $8, SI
	ADDQ  $8, DI
	ADDQ  $2, AX
	DECQ  CX
	JMP   pair

done:
	MOVQ AX, ret+48(FP)
	RET
