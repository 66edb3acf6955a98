//go:build amd64 && !purego

#include "textflag.h"

// func rowTerms(dst, b []float64, offs []int, coef []float64)
//
// dst[j] += coef[t]*b[offs[t]+j] for t ascending, j in [0, len(dst)).
// dst is walked in slabs: 16 elements held in X0–X7 across every term, then
// one 8-wide slab in X0–X3, then 2-wide slabs in X0, then one scalar. Each
// term is one MULPD lane then one ADDPD lane — two separately rounded IEEE
// operations, never a fused multiply-add — added into the slab in the order
// the terms are given, so every element sees exactly the operations of the
// scalar loop in rowterms_generic.go. 128-bit SSE2 only (amd64 baseline):
// see DESIGN §4.5 for why this is deliberately not 256-bit.
//
// Registers: DI dst slab, SI b at the slab's column, R8 offs, R9 coef, R10
// term count, R11 term index, CX columns left, AX the current term's offset,
// X8 its coefficient in both lanes, X9–X15 products. Offsets, not row
// numbers, so that a term's row is an addressing mode, not a multiply.
TEXT ·rowTerms(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ b_base+24(FP), SI
	MOVQ offs_base+48(FP), R8
	MOVQ offs_len+56(FP), R10
	MOVQ coef_base+72(FP), R9

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

term16:
	MOVQ     (R8)(R11*8), AX
	MOVSD    (R9)(R11*8), X8
	UNPCKLPD X8, X8
	MOVUPD   0(SI)(AX*8), X9
	MOVUPD   16(SI)(AX*8), X10
	MOVUPD   32(SI)(AX*8), X11
	MOVUPD   48(SI)(AX*8), X12
	MULPD    X8, X9
	MULPD    X8, X10
	MULPD    X8, X11
	MULPD    X8, X12
	ADDPD    X9, X0
	ADDPD    X10, X1
	ADDPD    X11, X2
	ADDPD    X12, X3
	MOVUPD   64(SI)(AX*8), X13
	MOVUPD   80(SI)(AX*8), X14
	MOVUPD   96(SI)(AX*8), X15
	MOVUPD   112(SI)(AX*8), X9
	MULPD    X8, X13
	MULPD    X8, X14
	MULPD    X8, X15
	MULPD    X8, X9
	ADDPD    X13, X4
	ADDPD    X14, X5
	ADDPD    X15, X6
	ADDPD    X9, X7
	INCQ     R11

next16:
	CMPQ   R11, R10
	JL     term16
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

term8:
	MOVQ     (R8)(R11*8), AX
	MOVSD    (R9)(R11*8), X8
	UNPCKLPD X8, X8
	MOVUPD   0(SI)(AX*8), X9
	MOVUPD   16(SI)(AX*8), X10
	MOVUPD   32(SI)(AX*8), X11
	MOVUPD   48(SI)(AX*8), X12
	MULPD    X8, X9
	MULPD    X8, X10
	MULPD    X8, X11
	MULPD    X8, X12
	ADDPD    X9, X0
	ADDPD    X10, X1
	ADDPD    X11, X2
	ADDPD    X12, X3
	INCQ     R11

next8:
	CMPQ   R11, R10
	JL     term8
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

term2:
	MOVQ     (R8)(R11*8), AX
	MOVSD    (R9)(R11*8), X8
	UNPCKLPD X8, X8
	MOVUPD   (SI)(AX*8), X9
	MULPD    X8, X9
	ADDPD    X9, X0
	INCQ     R11

next2:
	CMPQ   R11, R10
	JL     term2
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

term1:
	MOVQ  (R8)(R11*8), AX
	MOVSD (SI)(AX*8), X9
	MULSD (R9)(R11*8), X9
	ADDSD X9, X0
	INCQ  R11

next1:
	CMPQ  R11, R10
	JL    term1
	MOVSD X0, 0(DI)

done:
	RET
