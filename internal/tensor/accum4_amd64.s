#include "textflag.h"

// func accum4(y, w []float32, stride int, x0, x1, x2, x3 float32)
//
// Four columns per pass: X4 holds y[j:j+4], and the four weight rows are
// folded into it in ascending row order with MULPS then ADDPS — never a fused
// multiply-add — so each lane performs the Go loop's operations in the Go
// loop's order. Loads and the store are unaligned (MOVUPS): callers pass
// arbitrary column ranges and packed dequantisation strips. The ≤ 3 columns
// left over take the same steps one float at a time.
TEXT ·accum4(SB), NOSPLIT, $0-72
	MOVQ   y_base+0(FP), DI
	MOVQ   y_len+8(FP), CX
	MOVQ   w_base+24(FP), SI
	MOVQ   stride+48(FP), DX
	MOVSS  x0+56(FP), X0
	MOVSS  x1+60(FP), X1
	MOVSS  x2+64(FP), X2
	MOVSS  x3+68(FP), X3
	SHUFPS $0, X0, X0
	SHUFPS $0, X1, X1
	SHUFPS $0, X2, X2
	SHUFPS $0, X3, X3
	SHLQ   $2, DX             // row stride in bytes
	LEAQ   (SI)(DX*1), R8     // row 1
	LEAQ   (SI)(DX*2), R9     // row 2
	LEAQ   (R9)(DX*1), R10    // row 3
	SHLQ   $2, CX             // len(y) in bytes
	MOVQ   CX, BX
	ANDQ   $~15, BX           // … of which whole vectors
	XORQ   AX, AX
	CMPQ   AX, BX
	JGE    tail

vloop:
	MOVUPS (DI)(AX*1), X4
	MOVUPS (SI)(AX*1), X5
	MULPS  X0, X5
	ADDPS  X5, X4
	MOVUPS (R8)(AX*1), X5
	MULPS  X1, X5
	ADDPS  X5, X4
	MOVUPS (R9)(AX*1), X5
	MULPS  X2, X5
	ADDPS  X5, X4
	MOVUPS (R10)(AX*1), X5
	MULPS  X3, X5
	ADDPS  X5, X4
	MOVUPS X4, (DI)(AX*1)
	ADDQ   $16, AX
	CMPQ   AX, BX
	JLT    vloop

tail:
	CMPQ AX, CX
	JGE  done

sloop:
	MOVSS (DI)(AX*1), X4
	MOVSS (SI)(AX*1), X5
	MULSS X0, X5
	ADDSS X5, X4
	MOVSS (R8)(AX*1), X5
	MULSS X1, X5
	ADDSS X5, X4
	MOVSS (R9)(AX*1), X5
	MULSS X2, X5
	ADDSS X5, X4
	MOVSS (R10)(AX*1), X5
	MULSS X3, X5
	ADDSS X5, X4
	MOVSS X4, (DI)(AX*1)
	ADDQ  $4, AX
	CMPQ  AX, CX
	JLT   sloop

done:
	RET
