"""RV32IM-subset ISA with the ASSASIN stream extension (paper Table III).

The ISA layer is purely functional: it defines instructions, assembles
programs (from text or the :class:`~repro.isa.program.Asm` builder), and
executes them against a :class:`~repro.mem.memory.FlatMemory` plus stream
buffer sets. Timing lives in :mod:`repro.core`.
"""

from repro.isa.instructions import Instr, InstrKind, kind_of, validate_instr
from repro.isa.registers import ABI_NAMES, REG_NUMBERS, RegisterFile, reg_num
from repro.isa.program import Asm, Program
from repro.isa.assembler import assemble
from repro.isa.interpreter import Interpreter, StepInfo, StepKind
from repro.isa.fastpath import FastEngine
from repro.isa.stream_ext import (
    STREAM_OPCODE,
    decode_stream_instr,
    encode_stream_instr,
)

__all__ = [
    "Instr",
    "InstrKind",
    "kind_of",
    "validate_instr",
    "ABI_NAMES",
    "REG_NUMBERS",
    "RegisterFile",
    "reg_num",
    "Asm",
    "Program",
    "assemble",
    "Interpreter",
    "StepInfo",
    "StepKind",
    "FastEngine",
    "STREAM_OPCODE",
    "encode_stream_instr",
    "decode_stream_instr",
]
