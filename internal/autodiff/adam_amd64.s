//go:build amd64 && !purego

#include "textflag.h"

// func adamStep(w, g, m, v []float64, k *adamConsts)
//
// The loop of adam_generic.go, two values a step with MULPD, ADDPD, DIVPD
// and SQRTPD, then one scalar step for an odd length. Every operation is
// the Go loop's, with the same operand as destination: when both operands
// of an SSE2 operation are NaN the result is the destination's, so the
// routine returns the loop's NaN payloads bit for bit too. 128-bit SSE2
// only, as rowTerms.
//
// Registers: X8–X15 hold β1, 1−β1, β2, 1−β2, bc1, bc2, lr and ε in both
// lanes, X7 the weight decay; R11 is 1 when the decay is positive (the
// loop's `decay > 0`, false for NaN). DI w, SI g, DX m, BX v; R9 the byte
// offset, R10 the bytes in whole pairs, CX the bytes in all.
TEXT ·adamStep(SB), NOSPLIT, $0-104
	MOVQ w_base+0(FP), DI
	MOVQ w_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	MOVQ m_base+48(FP), DX
	MOVQ v_base+72(FP), BX
	MOVQ k+96(FP), AX

	MOVSD    0(AX), X8
	UNPCKLPD X8, X8
	MOVSD    8(AX), X9
	UNPCKLPD X9, X9
	MOVSD    16(AX), X10
	UNPCKLPD X10, X10
	MOVSD    24(AX), X11
	UNPCKLPD X11, X11
	MOVSD    32(AX), X12
	UNPCKLPD X12, X12
	MOVSD    40(AX), X13
	UNPCKLPD X13, X13
	MOVSD    48(AX), X14
	UNPCKLPD X14, X14
	MOVSD    56(AX), X15
	UNPCKLPD X15, X15
	MOVSD    64(AX), X7
	UNPCKLPD X7, X7

	XORQ    R11, R11
	XORPD   X6, X6
	UCOMISD X6, X7
	JLS     start
	MOVQ    $1, R11

start:
	SHLQ $3, CX
	MOVQ CX, R10
	ANDQ $-16, R10
	XORQ R9, R9

pair:
	CMPQ   R9, R10
	JGE    tail
	MOVUPD (SI)(R9*1), X0
	TESTQ  R11, R11
	JZ     pairmoments
	MOVUPD (DI)(R9*1), X1
	MOVAPD X7, X2
	MULPD  X1, X2         // decay·w
	ADDPD  X2, X0         // g + decay·w

pairmoments:
	MOVUPD (DX)(R9*1), X1
	MOVAPD X8, X2
	MULPD  X1, X2         // β1·m
	MOVAPD X9, X3
	MULPD  X0, X3         // (1−β1)·g
	ADDPD  X2, X3         // m = (1−β1)·g + β1·m
	MOVUPD X3, (DX)(R9*1)
	MOVUPD (BX)(R9*1), X1
	MOVAPD X10, X4
	MULPD  X1, X4         // β2·v
	MOVAPD X11, X5
	MULPD  X0, X5         // (1−β2)·g
	MULPD  X5, X0         // g·((1−β2)·g)
	ADDPD  X4, X0         // v = … + β2·v
	MOVUPD X0, (BX)(R9*1)
	DIVPD  X12, X3        // m/bc1
	DIVPD  X13, X0        // v/bc2
	MULPD  X14, X3        // (m/bc1)·lr
	SQRTPD X0, X0
	ADDPD  X15, X0        // √(v/bc2) + ε
	DIVPD  X0, X3
	MOVUPD (DI)(R9*1), X1
	SUBPD  X3, X1         // w − step
	MOVUPD X1, (DI)(R9*1)
	ADDQ   $16, R9
	JMP    pair

tail:
	CMPQ  R9, CX
	JGE   done
	MOVSD (SI)(R9*1), X0
	TESTQ R11, R11
	JZ    tailmoments
	MOVSD (DI)(R9*1), X1
	MOVSD X7, X2
	MULSD X1, X2
	ADDSD X2, X0

tailmoments:
	MOVSD  (DX)(R9*1), X1
	MOVSD  X8, X2
	MULSD  X1, X2
	MOVSD  X9, X3
	MULSD  X0, X3
	ADDSD  X2, X3
	MOVSD  X3, (DX)(R9*1)
	MOVSD  (BX)(R9*1), X1
	MOVSD  X10, X4
	MULSD  X1, X4
	MOVSD  X11, X5
	MULSD  X0, X5
	MULSD  X5, X0
	ADDSD  X4, X0
	MOVSD  X0, (BX)(R9*1)
	DIVSD  X12, X3
	DIVSD  X13, X0
	MULSD  X14, X3
	SQRTSD X0, X0
	ADDSD  X15, X0
	DIVSD  X0, X3
	MOVSD  (DI)(R9*1), X1
	SUBSD  X3, X1
	MOVSD  X1, (DI)(R9*1)

done:
	RET
