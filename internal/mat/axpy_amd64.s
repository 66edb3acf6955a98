//go:build amd64 && !purego

#include "textflag.h"

// func axpy(dst, src []float64, s float64)
//
// dst[j] += s*src[j] for j in [0, len(src)). Every element is one MULPD
// lane then one ADDPD lane — two separately rounded IEEE operations, the
// same two the Go loop in axpy_generic.go performs — so the result is
// bit-identical to it. 128-bit SSE2 only (amd64 baseline): see DESIGN §4.5
// for why this is deliberately not 256-bit.
TEXT ·axpy(SB), NOSPLIT, $0-56
	MOVQ     dst_base+0(FP), DI
	MOVQ     src_base+24(FP), SI
	MOVQ     src_len+32(FP), CX
	MOVSD    s+48(FP), X0
	UNPCKLPD X0, X0
	CMPQ     CX, $8
	JL       tail2

loop8:
	MOVUPD 0(SI), X1
	MOVUPD 16(SI), X2
	MOVUPD 32(SI), X3
	MOVUPD 48(SI), X4
	MULPD  X0, X1
	MULPD  X0, X2
	MULPD  X0, X3
	MULPD  X0, X4
	MOVUPD 0(DI), X5
	MOVUPD 16(DI), X6
	MOVUPD 32(DI), X7
	MOVUPD 48(DI), X8
	ADDPD  X1, X5
	ADDPD  X2, X6
	ADDPD  X3, X7
	ADDPD  X4, X8
	MOVUPD X5, 0(DI)
	MOVUPD X6, 16(DI)
	MOVUPD X7, 32(DI)
	MOVUPD X8, 48(DI)
	ADDQ   $64, SI
	ADDQ   $64, DI
	SUBQ   $8, CX
	CMPQ   CX, $8
	JGE    loop8

tail2:
	CMPQ   CX, $2
	JL     tail1
	MOVUPD 0(SI), X1
	MULPD  X0, X1
	MOVUPD 0(DI), X5
	ADDPD  X1, X5
	MOVUPD X5, 0(DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $2, CX
	JMP    tail2

tail1:
	TESTQ CX, CX
	JEQ   done
	MOVSD 0(SI), X1
	MULSD X0, X1
	MOVSD 0(DI), X5
	ADDSD X1, X5
	MOVSD X5, 0(DI)

done:
	RET
