//go:build amd64 && !purego

#include "textflag.h"

// AVX2 split-table kernels. Register use, all three:
//
//	SI in, DI out, CX bytes left (a positive multiple of 32)
//	Y0 low-nibble table  (c·x,      both 128-bit lanes)
//	Y1 high-nibble table (c·(x<<4), both lanes)
//	Y2 0x0f in every byte
//
// Every instruction between the first V… and VZEROUPPER is VEX-encoded:
// one legacy-SSE instruction in there (a MOVQ into an X register, say)
// costs an SSE/AVX transition of about 135 ns per call, more than a whole
// 344-byte shard takes.

DATA nibbleMask<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibbleMask<>(SB), RODATA|NOPTR, $8

#define LOAD_TABLES \
	MOVQ tbl+0(FP), AX; \
	MOVQ in+8(FP), SI; \
	MOVQ out+16(FP), DI; \
	MOVQ n+24(FP), CX; \
	VBROADCASTI128 (AX), Y0; \
	VBROADCASTI128 16(AX), Y1; \
	VPBROADCASTQ nibbleMask<>(SB), Y2

// MUL64 leaves c·in[0:64] in Y3, Y4; MUL32 leaves c·in[0:32] in Y3.
#define MUL64 \
	VMOVDQU (SI), Y3; \
	VMOVDQU 32(SI), Y4; \
	VPSRLQ $4, Y3, Y5; \
	VPSRLQ $4, Y4, Y6; \
	VPAND Y2, Y3, Y3; \
	VPAND Y2, Y4, Y4; \
	VPAND Y2, Y5, Y5; \
	VPAND Y2, Y6, Y6; \
	VPSHUFB Y3, Y0, Y3; \
	VPSHUFB Y4, Y0, Y4; \
	VPSHUFB Y5, Y1, Y5; \
	VPSHUFB Y6, Y1, Y6; \
	VPXOR Y5, Y3, Y3; \
	VPXOR Y6, Y4, Y4

#define MUL32 \
	VMOVDQU (SI), Y3; \
	VPSRLQ $4, Y3, Y5; \
	VPAND Y2, Y3, Y3; \
	VPAND Y2, Y5, Y5; \
	VPSHUFB Y3, Y0, Y3; \
	VPSHUFB Y5, Y1, Y5; \
	VPXOR Y5, Y3, Y3

// func mulAVX2(tbl *[32]byte, in, out *byte, n int)
TEXT ·mulAVX2(SB), NOSPLIT, $0-32
	LOAD_TABLES
	CMPQ CX, $64
	JB   mul32

mul64:
	MUL64
	VMOVDQU Y3, (DI)
	VMOVDQU Y4, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $64, CX
	CMPQ    CX, $64
	JAE     mul64

mul32:
	TESTQ CX, CX
	JZ    muldone
	MUL32
	VMOVDQU Y3, (DI)

muldone:
	VZEROUPPER
	RET

// func mulAddAVX2(tbl *[32]byte, in, out *byte, n int)
TEXT ·mulAddAVX2(SB), NOSPLIT, $0-32
	LOAD_TABLES
	CMPQ CX, $64
	JB   muladd32

muladd64:
	MUL64
	VPXOR   (DI), Y3, Y3
	VPXOR   32(DI), Y4, Y4
	VMOVDQU Y3, (DI)
	VMOVDQU Y4, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $64, CX
	CMPQ    CX, $64
	JAE     muladd64

muladd32:
	TESTQ CX, CX
	JZ    muladddone
	MUL32
	VPXOR   (DI), Y3, Y3
	VMOVDQU Y3, (DI)

muladddone:
	VZEROUPPER
	RET

// func addAVX2(in, out *byte, n int)
TEXT ·addAVX2(SB), NOSPLIT, $0-24
	MOVQ in+0(FP), SI
	MOVQ out+8(FP), DI
	MOVQ n+16(FP), CX
	CMPQ CX, $64
	JB   add32

add64:
	VMOVDQU (SI), Y3
	VMOVDQU 32(SI), Y4
	VPXOR   (DI), Y3, Y3
	VPXOR   32(DI), Y4, Y4
	VMOVDQU Y3, (DI)
	VMOVDQU Y4, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $64, CX
	CMPQ    CX, $64
	JAE     add64

add32:
	TESTQ CX, CX
	JZ    adddone
	VMOVDQU (SI), Y3
	VPXOR   (DI), Y3, Y3
	VMOVDQU Y3, (DI)

adddone:
	VZEROUPPER
	RET

// func detectAVX2() bool
//
// CPUID.1:ECX OSXSAVE (bit 27) and AVX (bit 28), XCR0 XMM and YMM state
// enabled (bits 1 and 2), CPUID.7.0:EBX AVX2 (bit 5).
TEXT ·detectAVX2(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	CPUID
	CMPL  AX, $7
	JB    no
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   no
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   no
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	TESTL $0x20, BX
	JZ    no
	MOVB  $1, ret+0(FP)

no:
	RET
