"""A MIPS-like 32-bit instruction set architecture.

This is the reproduction's substitute for the SimpleScalar PISA
toolchain the paper used: a classic fixed-width RISC encoding (R/I/J
formats plus a COP1 floating-point subset), a two-pass assembler with
the usual pseudo-instructions, and a disassembler
(:mod:`repro.isa.disassembler`, not re-exported here).  The bit-level field
layout follows MIPS I so the instruction words carry the realistic
vertical correlations (stable opcode fields, slowly varying register
and immediate fields) that the paper's encoding exploits.

Deliberate simplifications relative to real MIPS (documented in
DESIGN.md): no branch delay slots, and each even-numbered FP register
conceptually holds a full double (the simulator keeps one value per
architectural register).
"""

from repro.isa.registers import REG_NAMES, reg_name, reg_num
from repro.isa.opcodes import SPECS_BY_NAME, InstructionSpec
from repro.isa.instruction import Instruction, decode_word, encode_fields
from repro.isa.assembler import AssemblerError, Program, assemble

__all__ = [
    "REG_NAMES",
    "reg_name",
    "reg_num",
    "SPECS_BY_NAME",
    "InstructionSpec",
    "Instruction",
    "decode_word",
    "encode_fields",
    "AssemblerError",
    "Program",
    "assemble",
]
