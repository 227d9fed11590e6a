import os
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rweval.elf import (
    BUCKET_EHDR,
    BUCKET_PHDRS,
    BUCKET_SHDRS,
    BUCKET_UNMAPPED,
    ElfFile,
    ElfType,
    MalformedElf,
    SizeProfile,
    Unsupported,
    parse_elf,
    size_delta,
    size_profile,
)

from elfbuild import ET_EXEC, ET_REL, SHT_NOBITS, SHT_SYMTAB, Sec, build_elf
from oracles import readelf_facts


class TestParse:
    def test_below_minimum_header_size(self):
        with pytest.raises(MalformedElf):
            parse_elf(b"\x7fELF" + b"\x00" * 59)  # 63 bytes

    def test_bad_magic(self):
        with pytest.raises(MalformedElf):
            parse_elf(b"this is not an elf file".ljust(64, b"\x00"))

    def test_32bit_rejected(self):
        with pytest.raises(Unsupported):
            parse_elf(build_elf(ei_class=1))

    def test_big_endian_rejected(self):
        with pytest.raises(Unsupported):
            parse_elf(build_elf(ei_data=2))

    def test_section_table_past_eof(self):
        img = bytearray(build_elf())
        struct.pack_into("<Q", img, 40, len(img) + 1)  # e_shoff
        with pytest.raises(MalformedElf) as exc:
            parse_elf(bytes(img))
        assert exc.value.offset == len(img) + 1

    def test_program_table_past_eof(self):
        img = bytearray(build_elf())
        struct.pack_into("<Q", img, 32, len(img) - 8)  # e_phoff near the end
        with pytest.raises(MalformedElf):
            parse_elf(bytes(img))

    def test_section_data_past_eof(self):
        img = build_elf([Sec(".text", b"\x90" * 8)])
        with pytest.raises(MalformedElf):
            parse_elf(img[:-40])

    def test_basic_fields(self):
        img = build_elf(
            [Sec(".text", b"\x90" * 16), Sec(".symtab", b"\x00" * 24, SHT_SYMTAB)],
            interp=True,
        )
        s = parse_elf(img)
        assert s.file_size == len(img)
        assert s.elf_type is ElfType.DYN
        assert s.has_interp
        assert [sec.name for sec in s.sections] == [
            "",
            ".interp",
            ".text",
            ".symtab",
            ".shstrtab",
        ]

    def test_exec_type_without_interp(self):
        s = parse_elf(build_elf(elf_type=ET_EXEC, interp=False))
        assert s.elf_type is ElfType.EXEC
        assert not s.has_interp

    def test_other_type_maps_to_other(self):
        s = parse_elf(build_elf(elf_type=4))  # ET_CORE
        assert s.elf_type is ElfType.OTHER

    def test_nobits_has_zero_disk_size(self):
        img = build_elf([Sec(".bss", b"\x00" * 4096, SHT_NOBITS)])
        (bss,) = [sec for sec in parse_elf(img).sections if sec.name == ".bss"]
        assert bss.file_size_on_disk == 0
        assert bss.mem_size == 4096

    def test_missing_shstrtab_gives_empty_names(self):
        img = build_elf([Sec(".text", b"\x90" * 4)], with_shstrtab=False)
        s = parse_elf(img)
        assert all(sec.name == "" for sec in s.sections)

    def test_never_reads_past_buffer_on_fuzzable_offsets(self):
        img = bytearray(build_elf())
        struct.pack_into("<H", img, 62, 0xFFF0)  # absurd e_shstrndx
        s = parse_elf(bytes(img))  # tolerated: names become empty
        assert all(sec.name == "" for sec in s.sections)


def _patched(img: bytes, fmt: str, at: int, value: int) -> bytes:
    out = bytearray(img)
    struct.pack_into(fmt, out, at, value)
    return bytes(out)


def _size_field(img: bytes, entry: int) -> int:
    """File offset of the sh_size of section-table entry `entry`."""
    return struct.unpack_from("<Q", img, 40)[0] + 64 * entry + 32


WELL_FORMED = {
    "default": build_elf(),
    "interp": build_elf(interp=True),
    "exec": build_elf(elf_type=ET_EXEC),
    "relobj_no_phdrs": build_elf(elf_type=ET_REL, load_phdr=False),
    "symtab_nobits_gaps": build_elf([
        Sec(".text", b"\x90" * 40, gap_before=3),
        Sec(".symtab", b"\x00" * 48, SHT_SYMTAB),
        Sec(".bss", b"\x00" * 4096, SHT_NOBITS),
    ], trailing=bytes(77)),
    "no_shstrtab": build_elf(with_shstrtab=False),
    "absurd_shstrndx": _patched(build_elf(), "<H", 62, 0xFFF0),
}

# The malformed kinds the benchmark corpus holds, one per check, and a
# .shstrtab past the end of the file, which must not be fetched; each with
# the start of its error message.
MALFORMED = {
    "short": (b"\x7fELF" + bytes(40), "file too short for an ELF header"),
    "magic": (b"MZ\x90\x00".ljust(200, b"\x00"), "bad ELF magic"),
    "class32": (build_elf(ei_class=1), "only 64-bit"),
    "bigendian": (build_elf(ei_data=2), "only little-endian"),
    "shdr_past_eof": (build_elf()[:-20], "section header table extends past end"),
    "data_past_eof": (
        _patched(build_elf(), "<Q", _size_field(build_elf(), 1), 1 << 30),
        "section '.text' data extends past end"),
    "shstrtab_past_eof": (
        _patched(build_elf(), "<Q", _size_field(build_elf(), 2), 1 << 30),
        "section '' data extends past end"),
}


def _parse_file(path):
    with ElfFile(path) as binary:
        return parse_elf(binary)


class TestFileReader:
    @pytest.mark.parametrize("name", sorted(WELL_FORMED))
    def test_file_equals_bytes(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(WELL_FORMED[name])
        assert _parse_file(path) == parse_elf(path.read_bytes())

    def test_hello_variants_file_equals_bytes(self, hello_variants):
        for variant in hello_variants:
            assert _parse_file(variant.path) == parse_elf(variant.path.read_bytes()), \
                variant.name

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_file_fails_as_bytes_do(self, tmp_path, name):
        img, message = MALFORMED[name]
        path = tmp_path / name
        path.write_bytes(img)
        with pytest.raises((MalformedElf, Unsupported), match=f"^{message}") as from_bytes:
            parse_elf(img)
        with pytest.raises(type(from_bytes.value)) as from_file:
            _parse_file(path)
        assert str(from_file.value) == str(from_bytes.value)

    def test_reads_only_headers_and_shstrtab(self):
        img = build_elf([Sec(".text", b"\x90" * 300), Sec(".data", b"\x01" * 500)])
        summary = parse_elf(img)
        fetched = []

        class Recording:
            size = len(img)

            def fetch(self, offset, n):
                fetched.append((offset, n))
                return img[offset:offset + n]

        assert parse_elf(Recording()) == summary
        shstrtab = next(s for s in summary.sections if s.name == ".shstrtab")
        assert sorted(fetched) == sorted([
            (0, 64), summary.program_header_extent, summary.section_header_extent,
            (shstrtab.file_offset, shstrtab.file_size_on_disk)])

    @pytest.mark.parametrize("call", [0, 1, 2, 3])
    def test_short_fetch_is_malformed_at_its_offset(self, call):
        img = build_elf(interp=True)
        offsets = []

        class Shrinking:
            size = len(img)

            def fetch(self, offset, n):
                offsets.append(offset)
                cut = n - 1 if len(offsets) - 1 == call else n
                return img[offset:offset + cut]

        with pytest.raises(MalformedElf, match="shrank") as exc:
            parse_elf(Shrinking())
        assert exc.value.offset == offsets[call]

    def test_file_truncated_after_open_is_malformed(self, tmp_path):
        path = tmp_path / "shrinks"
        img = build_elf()
        path.write_bytes(img)
        shoff = struct.unpack_from("<Q", img, 40)[0]
        with ElfFile(path) as binary:
            os.truncate(path, shoff + 10)
            with pytest.raises(MalformedElf, match="shrank") as exc:
                parse_elf(binary)
        assert exc.value.offset == shoff

    # FIFOs are tested through the CLI in a child process with a timeout:
    # a reader that waits for a writer would hang this process
    @pytest.mark.parametrize("kind", ["directory", "device"])
    def test_non_regular_file_rejected_before_reading(self, tmp_path, kind):
        path = tmp_path / kind
        if kind == "directory":
            path.mkdir()
        else:
            path = "/dev/zero"
        with pytest.raises(OSError, match="^not a regular file$"):
            ElfFile(path)


class TestReadelfParity:
    def test_hello_world_variants(self, hello_variants):
        for variant in hello_variants:
            data = variant.path.read_bytes()
            summary = parse_elf(data)
            facts = readelf_facts(str(variant.path))
            assert summary.elf_type.value == facts.elf_type, variant.name
            ours = [sec.name for sec in summary.sections if sec.name]
            assert ours == facts.section_names, variant.name
            assert summary.has_interp, variant.name  # all are dynamic builds

    def test_pie_has_symtab_until_stripped(self, hello_variants):
        for variant in hello_variants:
            names = {
                sec.name for sec in parse_elf(variant.path.read_bytes()).sections
            }
            if variant.stripped:
                assert ".symtab" not in names and ".strtab" not in names
            else:
                assert ".symtab" in names

    def test_stripping_only_removes_symbol_sections(self, hello_variants):
        by_key = {(v.compiler, v.opt, v.pie, v.stripped): v for v in hello_variants}
        for cc, opt, pie, stripped in by_key:
            if stripped:
                continue
            full = parse_elf(by_key[(cc, opt, pie, False)].path.read_bytes())
            bare = parse_elf(by_key[(cc, opt, pie, True)].path.read_bytes())
            full_names = {s.name for s in full.sections if s.name}
            bare_names = {s.name for s in bare.sections if s.name}
            assert full_names - bare_names == {".symtab", ".strtab"}, (cc, opt, pie)


class TestSizeProfile:
    def test_gap_free_file_has_zero_unmapped(self):
        img = build_elf([Sec(".text", b"\x90" * 32), Sec(".data", b"\x01" * 8)])
        profile = size_profile(parse_elf(img))
        assert profile.buckets[BUCKET_UNMAPPED] == 0
        assert profile.total() == len(img)

    def test_trailing_bytes_go_to_unmapped_only(self):
        base = build_elf([Sec(".text", b"\x90" * 32)])
        grown = base + bytes(100)
        p0 = size_profile(parse_elf(base))
        p1 = size_profile(parse_elf(grown))
        assert p1.buckets[BUCKET_UNMAPPED] == p0.buckets[BUCKET_UNMAPPED] + 100
        for name, value in p0.buckets.items():
            if name != BUCKET_UNMAPPED:
                assert p1.buckets[name] == value

    def test_hello_world_buckets_sum_to_disk_size(self, hello_variants):
        for variant in hello_variants:
            data = variant.path.read_bytes()
            profile = size_profile(parse_elf(data))
            assert profile.total() == variant.path.stat().st_size, variant.name
            assert all(v >= 0 for v in profile.buckets.values())

    def test_header_buckets_have_expected_sizes(self):
        img = build_elf([Sec(".text", b"\x90" * 16)])
        s = parse_elf(img)
        profile = size_profile(s)
        assert profile.buckets[BUCKET_EHDR] == 64
        assert profile.buckets[BUCKET_PHDRS] == 56
        assert profile.buckets[BUCKET_SHDRS] == 3 * 64
        assert profile.buckets[".text"] == 16

    def test_gaps_are_unmapped(self):
        img = build_elf([Sec(".text", b"\x90" * 16, gap_before=7)])
        profile = size_profile(parse_elf(img))
        assert profile.buckets[BUCKET_UNMAPPED] == 7

    def test_each_nameless_section_has_its_own_bucket(self):
        img = build_elf([Sec(".text", b"\x90" * 12), Sec(".data", b"\x01" * 20),
                         Sec(".bss", b"\x00" * 8, SHT_NOBITS)], with_shstrtab=False)
        profile = size_profile(parse_elf(img))
        nameless = {k: v for k, v in profile.buckets.items() if not k.startswith("[E")}
        # the null section and the NOBITS section have no bytes on disk: no rows
        assert nameless == {"[section 1]": 12, "[section 2]": 20, BUCKET_UNMAPPED: 0}
        assert profile.total() == len(img)

    def test_nobits_claims_nothing(self):
        img = build_elf(
            [Sec(".text", b"\x90" * 16), Sec(".bss", b"\x00" * 999, SHT_NOBITS)]
        )
        profile = size_profile(parse_elf(img))
        assert profile.buckets[".bss"] == 0
        assert profile.total() == len(img)

    def test_overlap_first_claimer_wins(self):
        # two section headers pointing at the same bytes
        img = bytearray(build_elf([Sec(".text", b"\x90" * 16), Sec(".dup", b"")]))
        s = parse_elf(bytes(img))
        text = next(sec for sec in s.sections if sec.name == ".text")
        shoff = s.section_header_extent[0]
        # rewrite .dup's header (entry 2) to alias .text's bytes
        struct.pack_into("<QQ", img, shoff + 2 * 64 + 24, text.file_offset, 16)
        s2 = parse_elf(bytes(img))
        profile = size_profile(s2)
        assert profile.buckets[".text"] == 16
        assert profile.buckets[".dup"] == 0
        assert profile.total() == len(img)

    def test_deterministic(self):
        img = build_elf()
        s = parse_elf(img)
        assert size_profile(s) == size_profile(s)
        assert parse_elf(img) == s

    @settings(max_examples=60, deadline=None)
    @given(
        sections=st.lists(
            st.tuples(
                st.sampled_from([".a", ".b", ".c", ".data", ".text"]),
                st.integers(0, 48),
                st.booleans(),
                st.integers(0, 9),
            ),
            max_size=6,
        ),
        trailing=st.integers(0, 80),
    )
    def test_conservation_property(self, sections, trailing):
        secs = [
            Sec(name, b"\xaa" * size, SHT_NOBITS if nobits else 1, gap_before=gap)
            for name, size, nobits, gap in sections
        ]
        img = build_elf(secs, trailing=b"\xee" * trailing)
        profile = size_profile(parse_elf(img))
        assert profile.total() == len(img)
        assert all(v >= 0 for v in profile.buckets.values())


class TestSizeDelta:
    def test_identity_is_100_everywhere(self):
        img = build_elf()
        p = size_profile(parse_elf(img))
        delta = size_delta(p, p)
        assert all(v == 100.0 for v in delta.values() if v is not None)
        assert delta[".text"] == 100.0

    def test_growth_arithmetic(self):
        before = SizeProfile({".text": 1000})
        after = SizeProfile({".text": 1500})
        assert size_delta(before, after) == {".text": 150.0}

    def test_bucket_missing_on_either_side_is_na(self):
        before = SizeProfile({".text": 10})
        after = SizeProfile({".text": 10, ".got.plt": 64})
        delta = size_delta(before, after)
        assert delta[".got.plt"] is None
        assert size_delta(after, before)[".got.plt"] is None

    def test_zero_before_value_is_na(self):
        assert size_delta(SizeProfile({".bss": 0}), SizeProfile({".bss": 0})) == {
            ".bss": None
        }
