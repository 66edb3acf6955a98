//go:build amd64 && !purego

#include "textflag.h"

// func rowMax(best, b []float64)
//
// best[j] = b[r·len(best)+j] > best[j] ? b[r·len(best)+j] : best[j] for
// each row r of b ascending, j in [0, len(best)). best is walked in the
// slabs rowTerms uses: 16 elements held in X0–X7 across every row, then one
// 8-wide slab in X0–X3, then 2-wide slabs in X0, then one scalar. Each row
// is loaded into X8–X15 and MAXPD (MAXSD for the scalar) takes the slab as
// its source: the instruction returns DEST when DEST > SRC and SRC
// otherwise, so with the row in DEST it is exactly the scalar `if v >
// best[j]` of rowterms_generic.go — a NaN in the row never wins, a NaN in
// best never loses, and ties and ±0 keep best. The result is then moved
// back into the slab register. 128-bit SSE2 only, as rowTerms.
//
// Registers: DI best slab, SI b at the slab's column, CX columns left, R10
// len(b) in bytes, R12 the row stride (len(best)) in bytes, R11 the current
// row's byte offset. Rows end where the offset reaches len(b), so no row
// count is divided out.
TEXT ·rowMax(SB), NOSPLIT, $0-48
	MOVQ best_base+0(FP), DI
	MOVQ best_len+8(FP), CX
	MOVQ b_base+24(FP), SI
	MOVQ b_len+32(FP), R10
	SHLQ $3, R10
	MOVQ CX, R12
	SHLQ $3, R12

slab16:
	CMPQ   CX, $16
	JL     slab8
	MOVUPD 0(DI), X0
	MOVUPD 16(DI), X1
	MOVUPD 32(DI), X2
	MOVUPD 48(DI), X3
	MOVUPD 64(DI), X4
	MOVUPD 80(DI), X5
	MOVUPD 96(DI), X6
	MOVUPD 112(DI), X7
	XORQ   R11, R11
	JMP    next16

row16:
	MOVUPD 0(SI)(R11*1), X8
	MOVUPD 16(SI)(R11*1), X9
	MOVUPD 32(SI)(R11*1), X10
	MOVUPD 48(SI)(R11*1), X11
	MOVUPD 64(SI)(R11*1), X12
	MOVUPD 80(SI)(R11*1), X13
	MOVUPD 96(SI)(R11*1), X14
	MOVUPD 112(SI)(R11*1), X15
	MAXPD  X0, X8
	MAXPD  X1, X9
	MAXPD  X2, X10
	MAXPD  X3, X11
	MAXPD  X4, X12
	MAXPD  X5, X13
	MAXPD  X6, X14
	MAXPD  X7, X15
	MOVAPD X8, X0
	MOVAPD X9, X1
	MOVAPD X10, X2
	MOVAPD X11, X3
	MOVAPD X12, X4
	MOVAPD X13, X5
	MOVAPD X14, X6
	MOVAPD X15, X7
	ADDQ   R12, R11

next16:
	CMPQ   R11, R10
	JL     row16
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	MOVUPD X4, 64(DI)
	MOVUPD X5, 80(DI)
	MOVUPD X6, 96(DI)
	MOVUPD X7, 112(DI)
	ADDQ   $128, DI
	ADDQ   $128, SI
	SUBQ   $16, CX
	JMP    slab16

slab8:
	CMPQ   CX, $8
	JL     slab2
	MOVUPD 0(DI), X0
	MOVUPD 16(DI), X1
	MOVUPD 32(DI), X2
	MOVUPD 48(DI), X3
	XORQ   R11, R11
	JMP    next8

row8:
	MOVUPD 0(SI)(R11*1), X8
	MOVUPD 16(SI)(R11*1), X9
	MOVUPD 32(SI)(R11*1), X10
	MOVUPD 48(SI)(R11*1), X11
	MAXPD  X0, X8
	MAXPD  X1, X9
	MAXPD  X2, X10
	MAXPD  X3, X11
	MOVAPD X8, X0
	MOVAPD X9, X1
	MOVAPD X10, X2
	MOVAPD X11, X3
	ADDQ   R12, R11

next8:
	CMPQ   R11, R10
	JL     row8
	MOVUPD X0, 0(DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	ADDQ   $64, DI
	ADDQ   $64, SI
	SUBQ   $8, CX

slab2:
	CMPQ   CX, $2
	JL     slab1
	MOVUPD 0(DI), X0
	XORQ   R11, R11
	JMP    next2

row2:
	MOVUPD (SI)(R11*1), X8
	MAXPD  X0, X8
	MOVAPD X8, X0
	ADDQ   R12, R11

next2:
	CMPQ   R11, R10
	JL     row2
	MOVUPD X0, 0(DI)
	ADDQ   $16, DI
	ADDQ   $16, SI
	SUBQ   $2, CX
	JMP    slab2

slab1:
	TESTQ CX, CX
	JEQ   done
	MOVSD 0(DI), X0
	XORQ  R11, R11
	JMP   next1

row1:
	MOVSD (SI)(R11*1), X8
	MAXSD X0, X8
	MOVSD X8, X0
	ADDQ  R12, R11

next1:
	CMPQ  R11, R10
	JL    row1
	MOVSD X0, 0(DI)

done:
	RET
