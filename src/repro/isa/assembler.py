"""Two-pass assembler for the MIPS-like ISA.

Supports the classic directive set (``.text``, ``.data``, ``.word``,
``.half``, ``.byte``, ``.double``, ``.float``, ``.space``, ``.align``,
``.asciiz``, ``.globl``) and the usual pseudo-instructions (``li``,
``la``, ``move``, ``nop``, ``b``, ``beqz``/``bnez``, ``blt``/``bge``/
``bgt``/``ble``, ``mul``/``divq``/``rem``, ``neg``, ``not``, ``l.d``/
``s.d``).  Pseudo-instructions expand during pass 1 (so sizes are
known) and labels resolve during pass 2.

The default memory layout mirrors SPIM/SimpleScalar conventions:
text at ``0x0040_0000``, data at ``0x1000_0000``, stack top just below
``0x8000_0000``.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass

from repro.isa.instruction import Instruction, encode_fields
from repro.isa.opcodes import SPECS_BY_NAME
from repro.isa.registers import AT, ZERO, freg_num, is_freg, reg_num

TEXT_BASE = 0x00400000
DATA_BASE = 0x10000000
STACK_TOP = 0x7FFFEFFC

#: data directive -> its little-endian ``struct`` item code
_DATA_FORMATS = {".word": "I", ".half": "H", ".byte": "B", ".double": "d", ".float": "f"}

_LABEL_RE = re.compile(r"^[A-Za-z_.$][A-Za-z0-9_.$]*$")


class AssemblerError(ValueError):
    """An assembly-time error, annotated with the source line."""

    def __init__(self, message: str, line_no: int | None = None, line: str = ""):
        location = f" (line {line_no}: {line.strip()!r})" if line_no else ""
        super().__init__(message + location)
        self.line_no = line_no


@dataclass
class Program:
    """An assembled program image."""

    text_base: int
    words: list[int]
    instructions: list[Instruction]
    source_map: list[str]  # one source string per instruction
    labels: dict[str, int]
    data_base: int
    data_image: bytearray
    entry: int

    @property
    def text_end(self) -> int:
        return self.text_base + 4 * len(self.words)

    def address_of(self, label: str) -> int:
        try:
            return self.labels[label]
        except KeyError:
            raise KeyError(f"unknown label {label!r}") from None

    def index_of(self, address: int) -> int:
        """Instruction index for a text address."""
        offset = address - self.text_base
        if offset < 0 or offset % 4 or offset // 4 >= len(self.words):
            raise ValueError(f"address {address:#010x} is not in .text")
        return offset // 4

    def word_at(self, address: int) -> int:
        return self.words[self.index_of(address)]

    def instruction_at(self, address: int) -> Instruction:
        return self.instructions[self.index_of(address)]


# ---------------------------------------------------------------------------
# Operand representation after parsing
# ---------------------------------------------------------------------------
# ("reg", n) ("freg", n) ("imm", v) ("label", name)
# ("mem", offset:int|("label",name), base_reg:int)
# ("hi", name|int) ("lo", name|int)


def _parse_number(token: str) -> int | None:
    try:
        return int(token, 0)
    except ValueError:
        return None


def _parse_operand(token: str, line_no: int, line: str):
    token = token.strip()
    if not token:
        raise AssemblerError("empty operand", line_no, line)
    mem = re.match(r"^([^()]*)\(\s*(\$\w+)\s*\)$", token)
    if mem:
        offset_text = mem.group(1).strip() or "0"
        offset = _parse_number(offset_text)
        if offset is None:
            if not _LABEL_RE.match(offset_text):
                raise AssemblerError(
                    f"bad memory offset {offset_text!r}", line_no, line
                )
            offset = ("label", offset_text)
        try:
            base = reg_num(mem.group(2))
        except ValueError as exc:
            raise AssemblerError(str(exc), line_no, line) from None
        return ("mem", offset, base)
    if token.startswith("$"):
        if is_freg(token):
            return ("freg", freg_num(token))
        try:
            return ("reg", reg_num(token))
        except ValueError as exc:
            raise AssemblerError(str(exc), line_no, line) from None
    number = _parse_number(token)
    if number is not None:
        return ("imm", number)
    if _LABEL_RE.match(token):
        return ("label", token)
    raise AssemblerError(f"cannot parse operand {token!r}", line_no, line)


def _want(kind: str, operand, line_no: int, line: str) -> int:
    if operand[0] != kind:
        raise AssemblerError(
            f"expected {kind} operand, got {operand[0]} {operand[1:]!r}",
            line_no,
            line,
        )
    return operand[1]


@dataclass
class _Slot:
    """One real (post-expansion) instruction awaiting label resolution."""

    address: int
    mnemonic: str
    operands: list
    line_no: int
    source: str


def _fits_s16(value: int) -> bool:
    return -0x8000 <= value <= 0x7FFF


def _fits_u16(value: int) -> bool:
    return 0 <= value <= 0xFFFF


class _Assembler:
    def __init__(self, source: str, text_base: int, data_base: int):
        self.source = source
        self.text_base = text_base
        self.data_base = data_base
        self.labels: dict[str, int] = {}
        self.slots: list[_Slot] = []
        self.data = bytearray()
        self.section = "text"
        self.text_pc = text_base
        # Data labels bind to the *next emitted datum* so that a label
        # immediately followed by an aligning directive (.double after
        # .word, say) lands on the aligned address, not the padding.
        self._pending_data_labels: list[str] = []

    # ------------------------------------------------------------------
    # Pass 1: layout, label collection and pseudo expansion
    # ------------------------------------------------------------------

    def pass1(self) -> None:
        for line_no, raw in enumerate(self.source.splitlines(), start=1):
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            while True:
                match = re.match(r"^\s*([A-Za-z_.$][A-Za-z0-9_.$]*)\s*:\s*(.*)$", line)
                if not match:
                    break
                self._define_label(match.group(1), line_no, raw)
                line = match.group(2)
            statement = line.strip()
            if not statement:
                continue
            if statement.startswith("."):
                self._directive(statement, line_no, raw)
            else:
                self._instruction(statement, line_no, raw)
        self._bind_pending_data_labels()

    def _define_label(self, name: str, line_no: int, line: str) -> None:
        if name in self.labels or name in self._pending_data_labels:
            raise AssemblerError(f"duplicate label {name!r}", line_no, line)
        if self.section == "text":
            self.labels[name] = self.text_pc
        else:
            self._pending_data_labels.append(name)

    def _bind_pending_data_labels(self) -> None:
        address = self.data_base + len(self.data)
        for name in self._pending_data_labels:
            self.labels[name] = address
        self._pending_data_labels.clear()

    def _align_data(self, alignment: int) -> None:
        while len(self.data) % alignment:
            self.data.append(0)

    def _directive(self, statement: str, line_no: int, line: str) -> None:
        parts = statement.split(None, 1)
        name = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if name == ".text":
            self._bind_pending_data_labels()
            self.section = "text"
        elif name == ".data":
            self.section = "data"
        elif name == ".globl":
            pass
        elif name == ".align":
            power = _parse_number(rest.strip())
            if power is None or power < 0 or power > 16:
                raise AssemblerError(".align expects a small power", line_no, line)
            if self.section == "data":
                self._align_data(1 << power)
                self._bind_pending_data_labels()
        elif name == ".space":
            count = _parse_number(rest.strip())
            if count is None or count < 0:
                raise AssemblerError(".space expects a byte count", line_no, line)
            self._require_data(name, line_no, line)
            self._bind_pending_data_labels()
            self.data.extend(b"\x00" * count)
        elif name in _DATA_FORMATS:
            self._require_data(name, line_no, line)
            code = _DATA_FORMATS[name]
            size = struct.calcsize("<" + code)
            self._align_data(size)
            self._bind_pending_data_labels()
            values = []
            for token in self._split_items(rest, line_no, line):
                if code in "df":
                    try:
                        values.append(float(token))
                    except ValueError:
                        raise AssemblerError(
                            f"{name} expects floats, got {token!r}", line_no, line
                        ) from None
                elif (value := _parse_number(token)) is not None:
                    values.append(value & ((1 << (8 * size)) - 1))
                else:
                    raise AssemblerError(
                        f"{name} expects numbers, got {token!r}", line_no, line
                    )
            try:
                self.data += struct.pack(f"<{len(values)}{code}", *values)
            except OverflowError:
                raise AssemblerError(
                    f"{name} value outside single-precision range", line_no, line
                ) from None
        elif name == ".asciiz":
            self._require_data(name, line_no, line)
            text = rest.strip()
            if len(text) < 2 or text[0] != '"' or text[-1] != '"':
                raise AssemblerError('.asciiz expects a "string"', line_no, line)
            self._bind_pending_data_labels()
            body = text[1:-1].encode().decode("unicode_escape")
            self.data.extend(body.encode("latin-1") + b"\x00")
        else:
            raise AssemblerError(f"unknown directive {name}", line_no, line)

    def _require_data(self, directive: str, line_no: int, line: str) -> None:
        if self.section != "data":
            raise AssemblerError(
                f"{directive} is only valid in .data", line_no, line
            )

    @staticmethod
    def _split_items(rest: str, line_no: int, line: str) -> list[str]:
        items = [t for t in map(str.strip, rest.split(",")) if t]
        if not items:
            raise AssemblerError("directive expects operands", line_no, line)
        return items

    # ------------------------------------------------------------------

    def _instruction(self, statement: str, line_no: int, line: str) -> None:
        parts = statement.split(None, 1)
        mnemonic = parts[0].lower()
        operand_text = parts[1] if len(parts) > 1 else ""
        operands = (
            [
                _parse_operand(t, line_no, line)
                for t in operand_text.split(",")
            ]
            if operand_text.strip()
            else []
        )
        if self.section != "text":
            raise AssemblerError(
                "instructions are only valid in .text", line_no, line
            )
        for expanded_mnemonic, expanded_ops in self._expand(
            mnemonic, operands, line_no, line
        ):
            self.slots.append(
                _Slot(self.text_pc, expanded_mnemonic, expanded_ops, line_no, line.strip())
            )
            self.text_pc += 4

    def _expand(self, mnemonic: str, ops: list, line_no: int, line: str):
        """Expand pseudo-instructions; real instructions pass through."""

        def arity(n: int) -> None:
            if len(ops) != n:
                raise AssemblerError(
                    f"{mnemonic} expects {n} operands, got {len(ops)}",
                    line_no,
                    line,
                )

        if mnemonic == "nop":
            arity(0)
            return [("sll", [("reg", ZERO), ("reg", ZERO), ("imm", 0)])]
        if mnemonic == "move":
            arity(2)
            return [("addu", [ops[0], ops[1], ("reg", ZERO)])]
        if mnemonic == "li":
            arity(2)
            value = _want("imm", ops[1], line_no, line)
            if _fits_s16(value):
                return [("addiu", [ops[0], ("reg", ZERO), ("imm", value)])]
            if _fits_u16(value):
                return [("ori", [ops[0], ("reg", ZERO), ("imm", value)])]
            value &= 0xFFFFFFFF
            return [
                ("lui", [ops[0], ("imm", value >> 16)]),
                ("ori", [ops[0], ops[0], ("imm", value & 0xFFFF)]),
            ]
        if mnemonic == "la":
            arity(2)
            if ops[1][0] == "imm":
                return self._expand("li", ops, line_no, line)
            label = _want("label", ops[1], line_no, line)
            return [
                ("lui", [ops[0], ("hi", label)]),
                ("ori", [ops[0], ops[0], ("lo", label)]),
            ]
        if mnemonic == "b":
            arity(1)
            return [("beq", [("reg", ZERO), ("reg", ZERO), ops[0]])]
        if mnemonic in ("beqz", "bnez"):
            arity(2)
            real = "beq" if mnemonic == "beqz" else "bne"
            return [(real, [ops[0], ("reg", ZERO), ops[1]])]
        if mnemonic in ("blt", "bge", "bgt", "ble"):
            arity(3)
            rs, rt = ops[0], ops[1]
            if mnemonic in ("bgt", "ble"):
                rs, rt = rt, rs
            branch = "bne" if mnemonic in ("blt", "bgt") else "beq"
            return [
                ("slt", [("reg", AT), rs, rt]),
                (branch, [("reg", AT), ("reg", ZERO), ops[2]]),
            ]
        if mnemonic == "mul":
            arity(3)
            return [
                ("mult", [ops[1], ops[2]]),
                ("mflo", [ops[0]]),
            ]
        if mnemonic == "divq":  # 3-operand quotient (avoids clash with div)
            arity(3)
            return [
                ("div", [ops[1], ops[2]]),
                ("mflo", [ops[0]]),
            ]
        if mnemonic == "rem":
            arity(3)
            return [
                ("div", [ops[1], ops[2]]),
                ("mfhi", [ops[0]]),
            ]
        if mnemonic == "neg":
            arity(2)
            return [("subu", [ops[0], ("reg", ZERO), ops[1]])]
        if mnemonic == "not":
            arity(2)
            return [("nor", [ops[0], ops[1], ("reg", ZERO)])]
        if mnemonic == "subi":
            arity(3)
            value = _want("imm", ops[2], line_no, line)
            return [("addiu", [ops[0], ops[1], ("imm", -value)])]
        if mnemonic == "l.d":
            return [("ldc1", ops)]
        if mnemonic == "s.d":
            return [("sdc1", ops)]
        if mnemonic not in SPECS_BY_NAME:
            raise AssemblerError(f"unknown instruction {mnemonic!r}", line_no, line)
        return [(mnemonic, ops)]

    # ------------------------------------------------------------------
    # Pass 2: label resolution and encoding
    # ------------------------------------------------------------------

    def _resolve_value(self, operand, slot: _Slot) -> int:
        kind = operand[0]
        if kind == "imm":
            return operand[1]
        if kind == "label":
            try:
                return self.labels[operand[1]]
            except KeyError:
                raise AssemblerError(
                    f"undefined label {operand[1]!r}", slot.line_no, slot.source
                ) from None
        raise AssemblerError(
            f"expected immediate or label, got {operand!r}",
            slot.line_no,
            slot.source,
        )

    def pass2(self) -> tuple[list[Instruction], list[int], list[str]]:
        instructions: list[Instruction] = []
        words: list[int] = []
        sources: list[str] = []
        for slot in self.slots:
            spec = SPECS_BY_NAME[slot.mnemonic]
            fields: dict[str, int] = {}
            if len(slot.operands) != len(spec.syntax):
                raise AssemblerError(
                    f"{slot.mnemonic} expects {len(spec.syntax)} operands, "
                    f"got {len(slot.operands)}",
                    slot.line_no,
                    slot.source,
                )
            for role, operand in zip(spec.syntax, slot.operands):
                if role in ("rd", "rs", "rt"):
                    fields[role] = _want("reg", operand, slot.line_no, slot.source)
                elif role in ("fd", "fs", "ft"):
                    fields[role] = _want("freg", operand, slot.line_no, slot.source)
                elif role == "shamt":
                    value = _want("imm", operand, slot.line_no, slot.source)
                    if not 0 <= value < 32:
                        raise AssemblerError(
                            f"shift amount {value} out of range",
                            slot.line_no,
                            slot.source,
                        )
                    fields["shamt"] = value
                elif role == "imm":
                    if operand[0] == "hi":
                        value = (self._resolve_hi_lo(operand, slot) >> 16) & 0xFFFF
                    elif operand[0] == "lo":
                        value = self._resolve_hi_lo(operand, slot) & 0xFFFF
                    else:
                        value = self._resolve_value(operand, slot)
                        if not -0x8000 <= value <= 0xFFFF:
                            raise AssemblerError(
                                f"immediate {value} does not fit in 16 bits",
                                slot.line_no,
                                slot.source,
                            )
                    fields["imm"] = value & 0xFFFF
                elif role == "mem":
                    if operand[0] != "mem":
                        raise AssemblerError(
                            f"expected offset(base), got {operand!r}",
                            slot.line_no,
                            slot.source,
                        )
                    offset = operand[1]
                    if isinstance(offset, tuple):
                        offset = self._resolve_value(offset, slot)
                    if not -0x8000 <= offset <= 0x7FFF:
                        raise AssemblerError(
                            f"memory offset {offset} does not fit in 16 bits",
                            slot.line_no,
                            slot.source,
                        )
                    fields["imm"] = offset & 0xFFFF
                    fields["rs"] = operand[2]
                elif role == "branch":
                    target = self._resolve_value(operand, slot)
                    delta = target - (slot.address + 4)
                    if delta % 4:
                        raise AssemblerError(
                            "branch target misaligned", slot.line_no, slot.source
                        )
                    offset = delta >> 2
                    if not -0x8000 <= offset <= 0x7FFF:
                        raise AssemblerError(
                            "branch target out of range", slot.line_no, slot.source
                        )
                    fields["imm"] = offset & 0xFFFF
                elif role == "target":
                    target = self._resolve_value(operand, slot)
                    if target % 4:
                        raise AssemblerError(
                            "jump target misaligned", slot.line_no, slot.source
                        )
                    fields["target"] = (target >> 2) & 0x3FFFFFF
                else:
                    raise AssertionError(f"unknown syntax role {role}")
            instruction = Instruction(spec, fields)
            instructions.append(instruction)
            words.append(encode_fields(spec, fields))
            sources.append(slot.source)
        return instructions, words, sources

    def _resolve_hi_lo(self, operand, slot: _Slot) -> int:
        ref = operand[1]
        if isinstance(ref, int):
            return ref
        try:
            return self.labels[ref]
        except KeyError:
            raise AssemblerError(
                f"undefined label {ref!r}", slot.line_no, slot.source
            ) from None


def assemble(
    source: str,
    text_base: int = TEXT_BASE,
    data_base: int = DATA_BASE,
) -> Program:
    """Assemble source text into a :class:`Program`."""
    worker = _Assembler(source, text_base, data_base)
    worker.pass1()
    instructions, words, sources = worker.pass2()
    entry = worker.labels.get("main", text_base)
    return Program(
        text_base=text_base,
        words=words,
        instructions=instructions,
        source_map=sources,
        labels=dict(worker.labels),
        data_base=data_base,
        data_image=worker.data,
        entry=entry,
    )
