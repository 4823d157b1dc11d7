#include "textflag.h"

// func matAccum(y, x, w []float32, rows, in, out, wstride int)
//
// Register tiles. An output tile is loaded into XMM accumulators, every input
// p is folded into it, and it is stored once. Row pairs take 2×16 tiles
// (X0–X3 row r, X4–X7 row r+1) that share each weight load between the two
// rows; a last odd row takes 1×16 tiles. The columns left over take 4-wide
// tiles, then at most 3 take scalar ones. Each fold is MULPS then ADDPS —
// never a fused multiply-add — so each accumulator lane performs the Go
// loop's operations on one y element in the Go loop's order. Loads and stores
// are unaligned (MOVUPS): operands start at arbitrary float offsets.
//
// DI y row r, SI x row r, DX w, R8 in·4 (x row stride), R9 out·4 (y row
// stride), R10 wstride·4, R11 rows left, R13 in, BX the tile's column offset
// in bytes. Per tile CX walks the weight rows from w+BX, R12 walks x row r, AX
// counts the inputs down, and X8/X9 hold x[r,p]/x[r+1,p] broadcast.

// TILE points CX at the tile's first weight, R12 at x[r,0] and AX at in.
#define TILE \
	LEAQ (DX)(BX*1), CX; \
	MOVQ SI, R12;        \
	MOVQ R13, AX

// NEXTP advances to the next input; the caller branches on the flags.
#define NEXTP \
	ADDQ $4, R12; \
	ADDQ R10, CX; \
	DECQ AX

// FOLD2 folds four columns of the weight row into both rows' accumulators.
#define FOLD2(off, a, b) \
	MOVUPS off(CX), X10; \
	MOVAPS X10, X11;     \
	MULPS  X8, X10;      \
	MULPS  X9, X11;      \
	ADDPS  X10, a;       \
	ADDPS  X11, b

// FOLD1 folds four columns of the weight row into row r's accumulator.
#define FOLD1(off, a) \
	MOVUPS off(CX), X10; \
	MULPS  X8, X10;      \
	ADDPS  X10, a

TEXT ·matAccum(SB), NOSPLIT, $0-104
	MOVQ y_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ w_base+48(FP), DX
	MOVQ rows+72(FP), R11
	MOVQ in+80(FP), R13
	MOVQ out+88(FP), R9
	MOVQ wstride+96(FP), R10
	MOVQ R13, R8
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R10

pairs:
	CMPQ R11, $2
	JLT  single
	XORQ BX, BX

pair16:
	LEAQ   64(BX), AX
	CMPQ   AX, R9
	JGT    pair4
	LEAQ   (DI)(BX*1), CX
	MOVUPS (CX), X0
	MOVUPS 16(CX), X1
	MOVUPS 32(CX), X2
	MOVUPS 48(CX), X3
	MOVUPS (CX)(R9*1), X4
	MOVUPS 16(CX)(R9*1), X5
	MOVUPS 32(CX)(R9*1), X6
	MOVUPS 48(CX)(R9*1), X7
	TILE

pair16p:
	MOVSS  (R12), X8
	MOVSS  (R12)(R8*1), X9
	SHUFPS $0, X8, X8
	SHUFPS $0, X9, X9
	FOLD2(0, X0, X4)
	FOLD2(16, X1, X5)
	FOLD2(32, X2, X6)
	FOLD2(48, X3, X7)
	NEXTP
	JNZ    pair16p
	LEAQ   (DI)(BX*1), CX
	MOVUPS X0, (CX)
	MOVUPS X1, 16(CX)
	MOVUPS X2, 32(CX)
	MOVUPS X3, 48(CX)
	MOVUPS X4, (CX)(R9*1)
	MOVUPS X5, 16(CX)(R9*1)
	MOVUPS X6, 32(CX)(R9*1)
	MOVUPS X7, 48(CX)(R9*1)
	ADDQ   $64, BX
	JMP    pair16

pair4:
	LEAQ   16(BX), AX
	CMPQ   AX, R9
	JGT    pair1
	LEAQ   (DI)(BX*1), CX
	MOVUPS (CX), X0
	MOVUPS (CX)(R9*1), X4
	TILE

pair4p:
	MOVSS  (R12), X8
	MOVSS  (R12)(R8*1), X9
	SHUFPS $0, X8, X8
	SHUFPS $0, X9, X9
	FOLD2(0, X0, X4)
	NEXTP
	JNZ    pair4p
	LEAQ   (DI)(BX*1), CX
	MOVUPS X0, (CX)
	MOVUPS X4, (CX)(R9*1)
	ADDQ   $16, BX
	JMP    pair4

pair1:
	CMPQ  BX, R9
	JGE   pairnext
	LEAQ  (DI)(BX*1), CX
	MOVSS (CX), X0
	MOVSS (CX)(R9*1), X4
	TILE

pair1p:
	MOVSS  (R12), X8
	MOVSS  (R12)(R8*1), X9
	MOVSS  (CX), X10
	MOVAPS X10, X11
	MULSS  X8, X10
	MULSS  X9, X11
	ADDSS  X10, X0
	ADDSS  X11, X4
	NEXTP
	JNZ    pair1p
	LEAQ   (DI)(BX*1), CX
	MOVSS  X0, (CX)
	MOVSS  X4, (CX)(R9*1)
	ADDQ   $4, BX
	JMP    pair1

pairnext:
	LEAQ (DI)(R9*2), DI
	LEAQ (SI)(R8*2), SI
	SUBQ $2, R11
	JMP  pairs

single:
	TESTQ R11, R11
	JZ    done
	XORQ  BX, BX

one16:
	LEAQ   64(BX), AX
	CMPQ   AX, R9
	JGT    one4
	LEAQ   (DI)(BX*1), CX
	MOVUPS (CX), X0
	MOVUPS 16(CX), X1
	MOVUPS 32(CX), X2
	MOVUPS 48(CX), X3
	TILE

one16p:
	MOVSS  (R12), X8
	SHUFPS $0, X8, X8
	FOLD1(0, X0)
	FOLD1(16, X1)
	FOLD1(32, X2)
	FOLD1(48, X3)
	NEXTP
	JNZ    one16p
	LEAQ   (DI)(BX*1), CX
	MOVUPS X0, (CX)
	MOVUPS X1, 16(CX)
	MOVUPS X2, 32(CX)
	MOVUPS X3, 48(CX)
	ADDQ   $64, BX
	JMP    one16

one4:
	LEAQ   16(BX), AX
	CMPQ   AX, R9
	JGT    one1
	LEAQ   (DI)(BX*1), CX
	MOVUPS (CX), X0
	TILE

one4p:
	MOVSS  (R12), X8
	SHUFPS $0, X8, X8
	FOLD1(0, X0)
	NEXTP
	JNZ    one4p
	LEAQ   (DI)(BX*1), CX
	MOVUPS X0, (CX)
	ADDQ   $16, BX
	JMP    one4

one1:
	CMPQ  BX, R9
	JGE   done
	LEAQ  (DI)(BX*1), CX
	MOVSS (CX), X0
	TILE

one1p:
	MOVSS (R12), X8
	MOVSS (CX), X10
	MULSS X8, X10
	ADDSS X10, X0
	NEXTP
	JNZ   one1p
	LEAQ  (DI)(BX*1), CX
	MOVSS X0, (CX)
	ADDQ  $4, BX
	JMP   one1

done:
	RET
