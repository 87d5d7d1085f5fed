"""The one writer of every file svloop makes (``errors._write_bytes``), the
directory maker beside it, and the rule that nothing in ``src/`` writes a
file any other way, so the seam that ``support.path_calls`` instruments
sees every write."""

import ast
import os
import stat
from pathlib import Path

import pytest

import svloop
from support import WRITING_CALLS, SimulatedCrash, path_calls, record_mock_script, tree_listing
from svloop.errors import _mkdir, _write_bytes, _write_json
from svloop.manifest import RunConfig
from svloop.matrix import evaluate_matrix

SRC = Path(svloop.__file__).parent
WRITER = ("errors.py", "_write_bytes")
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND"}


def _mode_arg(call: ast.Call):
    """The mode expression of an ``open`` call, or None when it has none:
    ``open(path, mode)`` and ``io.open(path, mode)``, else ``path.open(mode)``."""
    func = call.func
    at = 1 if isinstance(func, ast.Name) or (
        isinstance(func.value, ast.Name) and func.value.id == "io") else 0
    modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[at:at + 1]
    return modes[0] if modes else None


def file_writes(tree: ast.AST, skip=None):
    """(line, call) of every call in ``tree`` that writes a file, outside the
    function named ``skip``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name == skip:
            continue
        stack.extend(ast.iter_child_nodes(node))
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        owner = func.value.id if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name) else None
        if name in ("write_text", "write_bytes"):
            yield node.lineno, name
        elif owner == "os" and name in ("write", "fdopen"):
            yield node.lineno, f"os.{name}"
        elif owner == "os" and name == "open":
            given = node.args[1:2] + [k.value for k in node.keywords if k.arg == "flags"]
            if {n.attr for arg in given for n in ast.walk(arg)
                    if isinstance(n, ast.Attribute)} & WRITE_FLAGS:
                yield node.lineno, "os.open"
        elif name == "open":
            mode = _mode_arg(node)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and not set(str(mode.value)) & set("wax+")):
                yield node.lineno, "open"


class TestOneWriter:
    def test_src_writes_files_only_through_the_writer(self):
        found, writer = [], []
        for path in sorted(SRC.rglob("*.py")):
            rel = path.relative_to(SRC).as_posix()
            tree = ast.parse(path.read_text("utf-8"))
            found += [f"{rel}:{line}: {call}" for line, call in
                      file_writes(tree, skip=WRITER[1] if rel == WRITER[0] else None)]
            if rel == WRITER[0]:
                writer += list(file_writes(tree))
        assert found == []
        # the walk does reach the writer's own open and write
        assert {call for _, call in writer} == {"os.open", "os.write"}

    @pytest.mark.parametrize("code", [
        "Path(p).write_text('x')", "p.write_bytes(b'x')", "open(p, 'w')", "open(p, mode='ab')",
        "io.open(p, 'r+')", "p.open('x')", "open(p, m)", "os.open(p, os.O_WRONLY | os.O_CREAT)",
        "os.write(fd, b'x')", "os.fdopen(fd, 'w')",
    ])
    def test_each_way_of_writing_is_found(self, code):
        assert [call for _, call in file_writes(ast.parse(code))]

    @pytest.mark.parametrize("code", [
        "open(p)", "open(p, 'rb')", "open(p, 'r', -1, 'ascii')", "p.open()", "p.read_text()",
        "os.open(p, os.O_RDONLY)", "io.open(p, encoding='ascii')",
    ])
    def test_reads_are_not_writes(self, code):
        assert list(file_writes(ast.parse(code))) == []


class TestWriter:
    def test_a_short_write_is_continued(self, tmp_path, monkeypatch):
        real, calls = os.write, []

        def one_byte(fd, data):
            calls.append(len(data))
            return real(fd, bytes(data[:1]))

        data = bytes(range(256)) * 3
        monkeypatch.setattr(os, "write", one_byte)
        _write_bytes(tmp_path / "f", data)
        monkeypatch.undo()
        assert (tmp_path / "f").read_bytes() == data
        assert len(calls) == len(data)

    def test_a_failing_write_closes_its_descriptor(self, tmp_path, monkeypatch):
        real_open, real_close = os.open, os.close
        opened, closed = [], []

        def failing(fd, data):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "open", lambda *a: opened.append(real_open(*a)) or opened[-1])
        monkeypatch.setattr(os, "close", lambda fd: closed.append(fd) or real_close(fd))
        monkeypatch.setattr(os, "write", failing)
        with pytest.raises(OSError, match="No space"):
            _write_bytes(tmp_path / "f", b"data")
        monkeypatch.undo()
        assert len(opened) == 1 and closed == opened

    def test_an_existing_file_is_truncated(self, tmp_path):
        (tmp_path / "f").write_bytes(b"a longer old content")
        _write_bytes(str(tmp_path / "f"), b"new")
        assert (tmp_path / "f").read_bytes() == b"new"

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_a_new_file_has_the_mode_pathlib_gives_it(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            _write_bytes(tmp_path / "new", b"x")
            _write_json(tmp_path / "new.json", {})
            (tmp_path / "by_pathlib").write_bytes(b"x")
        finally:
            os.umask(old)
        modes = {stat.S_IMODE((tmp_path / name).stat().st_mode)
                 for name in ("new", "new.json", "by_pathlib")}
        assert modes == {0o666 & ~umask}

    def test_json_goes_through_a_renamed_tmp_file(self, tmp_path):
        with path_calls() as calls:
            _write_json(tmp_path / "r.json", {"b": [1], "a": "é"})
        assert [(name, p.name) for name, p in calls] == [
            ("write_bytes", "r.json.tmp"), ("replace", "r.json.tmp")]
        assert (tmp_path / "r.json").read_bytes() == (
            b'{\n  "a": "\\u00e9",\n  "b": [\n    1\n  ]\n}\n')
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]


class TestMkdir:
    def test_an_existing_directory_is_fine(self, tmp_path):
        _mkdir(tmp_path / "d")
        (tmp_path / "d" / "keep").write_bytes(b"x")
        _mkdir(tmp_path / "d")
        _mkdir(str(tmp_path / "d"), parents=True)
        assert (tmp_path / "d" / "keep").read_bytes() == b"x"

    @pytest.mark.parametrize("parents", [False, True])
    def test_an_existing_file_is_an_error(self, tmp_path, parents):
        (tmp_path / "f").write_bytes(b"x")
        with pytest.raises(FileExistsError):
            _mkdir(tmp_path / "f", parents=parents)
        assert (tmp_path / "f").read_bytes() == b"x"

    def test_missing_parents_need_parents(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            _mkdir(tmp_path / "a" / "b")
        _mkdir(tmp_path / "a" / "b", parents=True)
        assert (tmp_path / "a" / "b").is_dir()


def open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_run_leaves_no_descriptor_open(problems, tmp_path):
    desk = list(problems.values())
    script = record_mock_script(desk, tmp_path / "script", tmp_path / "record")
    config = RunConfig(provider="mock", script_dir=str(script), seed=1)
    before = open_descriptors()
    with path_calls() as calls:
        evaluate_matrix(desk, config, tmp_path / "clean")
    assert open_descriptors() == before
    # crash at a write halfway through the run, then resume it
    writes = [name for name, _ in calls if name in WRITING_CALLS]
    k = next(k for k in range(len(writes) // 2, len(writes) + 1) if writes[k - 1] == "write_bytes")
    with pytest.raises(SimulatedCrash), path_calls(crash_at=k):
        evaluate_matrix(desk, config, tmp_path / "crashed")
    assert open_descriptors() == before
    evaluate_matrix(desk, config, tmp_path / "crashed")
    assert open_descriptors() == before
    assert tree_listing(tmp_path / "crashed") == tree_listing(tmp_path / "clean")
