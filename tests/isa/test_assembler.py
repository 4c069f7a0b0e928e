"""Tests for the two-pass assembler."""

import struct

import pytest

from repro.isa.assembler import (
    DATA_BASE,
    TEXT_BASE,
    AssemblerError,
    assemble,
)
from repro.isa.disassembler import disassemble_word


class TestBasics:
    def test_empty_program(self):
        program = assemble("")
        assert program.words == []
        assert program.entry == TEXT_BASE

    def test_single_instruction(self):
        program = assemble(".text\naddu $t0, $t1, $t2\n")
        assert program.words == [0x012A4021]

    def test_entry_is_main(self):
        program = assemble(
            """
            .text
            nop
            main: nop
            """
        )
        assert program.entry == TEXT_BASE + 4

    def test_comments_and_blank_lines(self):
        program = assemble(
            """
            # full-line comment

            .text
            nop  # trailing comment
            """
        )
        assert len(program.words) == 1

    def test_label_on_own_line(self):
        program = assemble(
            """
            .text
            start:
            nop
            """
        )
        assert program.address_of("start") == TEXT_BASE

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError, match="duplicate"):
            assemble(".text\na: nop\na: nop\n")

    def test_unknown_instruction_rejected(self):
        with pytest.raises(AssemblerError, match="unknown instruction"):
            assemble(".text\nfrobnicate $t0\n")

    def test_instruction_in_data_rejected(self):
        with pytest.raises(AssemblerError, match="only valid in .text"):
            assemble(".data\nnop\n")

    def test_error_carries_line_number(self):
        try:
            assemble(".text\nnop\nbogus $t0\n")
        except AssemblerError as error:
            assert error.line_no == 3
        else:
            pytest.fail("expected AssemblerError")


class TestDataDirectives:
    def test_word_layout(self):
        program = assemble(".data\nvalues: .word 1, 2, -1\n")
        assert program.data_image[:12] == struct.pack("<iii", 1, 2, -1)
        assert program.address_of("values") == DATA_BASE

    def test_byte_and_half(self):
        program = assemble(".data\n.byte 1, 2\n.half 0x1234\n")
        # .half aligns to 2 after the two bytes.
        assert bytes(program.data_image) == b"\x01\x02\x34\x12"

    def test_double(self):
        program = assemble(".data\nd: .double 2.5, -1.0\n")
        assert struct.unpack("<dd", bytes(program.data_image[:16])) == (2.5, -1.0)

    def test_label_before_aligned_double(self):
        # The critical case: a label followed by an aligning directive
        # must bind to the aligned address.
        program = assemble(
            """
            .data
            pad: .word 1
            val: .double 7.0
            """
        )
        assert program.address_of("val") == DATA_BASE + 8
        assert struct.unpack(
            "<d", bytes(program.data_image[8:16])
        ) == (7.0,)

    def test_space(self):
        program = assemble(".data\nbuf: .space 16\nend: .word 1\n")
        assert program.address_of("end") == DATA_BASE + 16

    def test_align(self):
        program = assemble(".data\n.byte 1\n.align 3\nlab: .word 2\n")
        assert program.address_of("lab") == DATA_BASE + 8

    def test_asciiz(self):
        program = assemble('.data\nmsg: .asciiz "hi"\n')
        assert bytes(program.data_image[:3]) == b"hi\x00"

    def test_word_in_text_rejected(self):
        with pytest.raises(AssemblerError, match="only valid in .data"):
            assemble(".text\n.word 5\n")

    def test_every_width_in_one_image(self):
        program = assemble(
            ".data\n.byte 1, 255, -1\n.half -2, 0x1234\n.word 0xFFFFFFFF, -3\n"
            ".float 1.5, -0.25\n.double 2.5, -1e300\n"
        )
        assert bytes(program.data_image) == (
            b"\x01\xff\xff\x00" + struct.pack("<Hh", 0xFFFE, 0x1234)
            + struct.pack("<Ii", 0xFFFFFFFF, -3) + struct.pack("<ff", 1.5, -0.25)
            + struct.pack("<dd", 2.5, -1e300)
        )

    @pytest.mark.parametrize(
        "directive, token, message",
        (
            (".word", "x2", "expects numbers"),
            (".byte", "1.5", "expects numbers"),
            (".double", "x2", "expects floats"),
            (".float", "0x1.0", "expects floats"),
        ),
    )
    def test_bad_item_is_named_with_its_line(self, directive, token, message):
        source = f".data\nok: .word 1\nbad: {directive} 1, {token}, 3\n"
        with pytest.raises(AssemblerError, match=f"{message}, got '{token}'") as info:
            assemble(source)
        assert info.value.line_no == 3
        assert f"(line 3: 'bad: {directive} 1, {token}, 3')" in str(info.value)

    def test_float_beyond_single_range_is_named_with_its_line(self):
        with pytest.raises(AssemblerError, match="single-precision range") as info:
            assemble(".data\nbig: .float 1e300\n")
        assert info.value.line_no == 2


class TestPseudoInstructions:
    def test_nop(self):
        program = assemble(".text\nnop\n")
        assert program.words == [0]

    def test_li_small(self):
        program = assemble(".text\nli $t0, 5\n")
        assert len(program.words) == 1
        assert disassemble_word(program.words[0]) == "addiu $t0, $zero, 5"

    def test_li_negative(self):
        program = assemble(".text\nli $t0, -3\n")
        assert disassemble_word(program.words[0]) == "addiu $t0, $zero, -3"

    def test_li_unsigned16(self):
        program = assemble(".text\nli $t0, 0xFFFF\n")
        assert len(program.words) == 1
        assert disassemble_word(program.words[0]).startswith("ori")

    def test_li_large_expands_to_two(self):
        program = assemble(".text\nli $t0, 0x12345678\n")
        assert len(program.words) == 2
        assert disassemble_word(program.words[0]).startswith("lui")
        assert disassemble_word(program.words[1]).startswith("ori")

    def test_la_expands_to_two(self):
        program = assemble(".data\nv: .word 0\n.text\nla $t0, v\n")
        assert len(program.words) == 2

    def test_move(self):
        program = assemble(".text\nmove $t0, $t1\n")
        assert disassemble_word(program.words[0]) == "addu $t0, $t1, $zero"

    def test_branch_pseudos_expand(self):
        program = assemble(
            """
            .text
            loop: blt $t0, $t1, loop
            bge $t0, $t1, loop
            bgt $t0, $t1, loop
            ble $t0, $t1, loop
            """
        )
        assert len(program.words) == 8  # each expands to slt + branch

    def test_beqz_bnez(self):
        program = assemble(".text\nx: beqz $t0, x\nbnez $t0, x\n")
        assert len(program.words) == 2

    def test_mul_divq_rem(self):
        program = assemble(
            ".text\nmul $t0, $t1, $t2\ndivq $t0, $t1, $t2\nrem $t0, $t1, $t2\n"
        )
        assert len(program.words) == 6

    def test_blt_with_immediate_rejected(self):
        with pytest.raises(AssemblerError, match="expected reg"):
            assemble(".text\nx: blt $t0, 5, x\n")


class TestBranchesAndJumps:
    def test_backward_branch_offset(self):
        program = assemble(".text\nloop: nop\nbne $t0, $t1, loop\n")
        # Branch at +4, target +0: offset = (0 - 8) / 4 = -2.
        inst = program.instructions[1]
        assert inst.simm == -2

    def test_forward_branch_offset(self):
        program = assemble(".text\nbeq $t0, $t1, skip\nnop\nskip: nop\n")
        assert program.instructions[0].simm == 1

    def test_jump_target(self):
        program = assemble(".text\nmain: j main\n")
        assert program.instructions[0].get("target") == TEXT_BASE >> 2

    def test_undefined_label_rejected(self):
        with pytest.raises(AssemblerError, match="undefined label"):
            assemble(".text\nj nowhere\n")

    def test_branch_out_of_range_rejected(self):
        body = "\n".join(["nop"] * 40000)
        with pytest.raises(AssemblerError, match="out of range"):
            assemble(f".text\ntop: nop\n{body}\nbne $t0, $t1, top\n")


class TestProgramApi:
    def test_index_and_word_lookup(self):
        program = assemble(".text\nnop\naddu $t0, $t1, $t2\n")
        assert program.index_of(TEXT_BASE + 4) == 1
        assert program.word_at(TEXT_BASE + 4) == 0x012A4021
        assert program.instruction_at(TEXT_BASE).name == "sll"

    def test_bad_address_rejected(self):
        program = assemble(".text\nnop\n")
        with pytest.raises(ValueError):
            program.index_of(TEXT_BASE + 2)
        with pytest.raises(ValueError):
            program.index_of(TEXT_BASE + 8)

    def test_unknown_label_keyerror(self):
        program = assemble(".text\nnop\n")
        with pytest.raises(KeyError):
            program.address_of("nope")


class TestDisassemblerRoundTrip:
    def test_full_program_roundtrip(self):
        source = """
        .data
        v: .word 1, 2, 3
        .text
        main: la $t0, v
        lw $t1, 0($t0)
        addiu $t1, $t1, 10
        sw $t1, 4($t0)
        beq $t1, $zero, main
        jr $ra
        """
        program = assemble(source)
        # Disassemble every word and re-assemble; the words must match.
        from repro.isa.disassembler import disassemble_word

        lines = []
        for i, word in enumerate(program.words):
            text = disassemble_word(word)
            # Rewrite branch/jump targets as self-referencing labels to
            # keep the program assemblable.
            if text.startswith(("beq", "bne", "j ", "jal ")):
                continue
            lines.append(text)
        reassembled = assemble(".text\n" + "\n".join(lines))
        survivors = [
            w
            for w in program.words
            if not disassemble_word(w).startswith(("beq", "bne", "j ", "jal "))
        ]
        assert reassembled.words == survivors
