import importlib
import json
import subprocess
import sys
import time

import pytest

from crossedprod.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_subprocess(args):
    proc = subprocess.run(
        [sys.executable, "-m", "crossedprod.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_enumerate_c2_c2(capsys):
    code, out, _ = run_cli(["enumerate", "--h", "cyclic:2", "--g", "cyclic:2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 2
    assert doc["systems"][0]["f"] == [[0, 0], [0, 0]]
    assert doc["systems"][1]["f"] == [[0, 0], [0, 1]]


def test_enumerate_out_of_memory_is_a_json_error_with_exit_2(capsys, monkeypatch):
    # (C3, C16) is inside the pair cap, but it has 4 * 3^14 systems; here the
    # block stream raises MemoryError without allocating
    classify_mod = importlib.import_module("crossedprod.classify")
    numpy_message = "Unable to allocate 1.14 GiB for an array with shape (4782969, 256) and data type uint8"
    for error, message in ((MemoryError(numpy_message), numpy_message), (MemoryError(), "out of memory")):

        def exhausted(*args, error=error):
            raise error

        monkeypatch.setattr(classify_mod, "_system_blocks", exhausted)
        code, out, err = run_cli(["enumerate", "--h", "cyclic:3", "--g", "cyclic:16"], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": {"type": "out-of-memory", "message": message}}


def test_enumerate_trivial_h(capsys):
    code, out, _ = run_cli(["enumerate", "--h", "cyclic:1", "--g", "cyclic:3"], capsys)
    assert code == 0
    assert json.loads(out)["count"] == 1


def test_enumerate_contains_q8_system(capsys):
    code, out, _ = run_cli(["enumerate", "--h", "cyclic:4", "--g", "cyclic:2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 6
    wanted = [
        s for s in doc["systems"]
        if s["alpha"][1] == [0, 3, 2, 1] and s["f"][1][1] == 2
    ]
    assert len(wanted) == 1


def test_classify_counts(capsys):
    for relation, expected in (("eq1", 2), ("eq2", 2), ("iso", 2)):
        code, out, _ = run_cli(
            ["classify", "--h", "cyclic:2", "--g", "cyclic:2", "--relation", relation],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["class_count"] == expected
        names = sorted(c["product"]["name"] for c in doc["classes"])
        assert names == ["C2xC2", "C4"]


# (H, G, relation, sha256 prefix of `classify` stdout) for the benchmark's
# classify jobs, recorded from the classifier that marked eq2 orbits with
# its own witness kernel
CLASSIFY_DIGESTS = [
    ("product(cyclic:2,cyclic:2)", "product(cyclic:2,cyclic:2)", "eq1", "c15d009f94d86d69d6756f60d310e809"),
    ("product(cyclic:2,cyclic:2)", "product(cyclic:2,cyclic:2)", "eq2", "00578aab863fb8c8e5e1f83b10c430e0"),
    ("product(cyclic:2,cyclic:2)", "product(cyclic:2,cyclic:2)", "iso", "39f1d6a13916500331970a68a8910a07"),
    ("cyclic:2", "dihedral:8", "eq1", "41dbf68476bba01c68d700f088fad089"),
    ("cyclic:2", "dihedral:8", "eq2", "942ec68dcbfc3d0174ac3800ba8ffe90"),
    ("cyclic:2", "dihedral:8", "iso", "0574701bd11ff465f33229135b3e4e8e"),
    ("cyclic:2", "quaternion:8", "eq1", "2f88eb68d1b4eb17c67c097227769f94"),
    ("cyclic:2", "quaternion:8", "eq2", "2871f7e539024c1e0bc5f0d691f4b42a"),
    ("cyclic:2", "quaternion:8", "iso", "c8bb63586724de4a5d47421e7d35b0cd"),
    ("cyclic:3", "symmetric:3", "eq1", "0b22a157b282922ce788296670bbf6f6"),
    ("cyclic:3", "symmetric:3", "eq2", "61830f4e097509f1250336c903068d2b"),
    ("cyclic:3", "symmetric:3", "iso", "2e70b9e1bc8645e99a41576b31cbdcae"),
    ("cyclic:4", "cyclic:4", "eq1", "bd83c6443aac28d31042a05d196028ee"),
    ("cyclic:4", "cyclic:4", "eq2", "d740a651421b0ecd1aca1dfade0d5405"),
    ("cyclic:4", "cyclic:4", "iso", "aaaee45794c1460608d2982c26c9c9cc"),
    ("quaternion:8", "cyclic:2", "eq1", "36b2576173136066d98e95c211020b00"),
    ("quaternion:8", "cyclic:2", "eq2", "8ff16504478e87bb9471475fa1932ae8"),
    ("quaternion:8", "cyclic:2", "iso", "bf39e7491020df89952cd36c725f4d7f"),
    ("dihedral:8", "cyclic:2", "eq1", "e0dc3d8dabbb9999456e78ecf3e65ed0"),
    ("dihedral:8", "cyclic:2", "eq2", "cfa180e07bc50d1eac3e333327dd2dbc"),
    ("dihedral:8", "cyclic:2", "iso", "7ea3f2351709ba2ceb491652ccf07cd6"),
]


@pytest.mark.parametrize("h,g,relation,digest", CLASSIFY_DIGESTS)
def test_classify_stdout_matches_the_recorded_digest(h, g, relation, digest, capsys):
    import hashlib

    code, out, _ = run_cli(["classify", "--h", h, "--g", g, "--relation", relation], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:32] == digest


# (H, G, sha256 prefix of `enumerate` stdout) for the benchmark's enumerate
# requests, recorded from the backtracking engine for every pair
ENUMERATE_DIGESTS = [
    ("cyclic:2", "dihedral:8", "6a4e4d115bd2ea218bb81f593ef5b31e"),
    ("cyclic:4", "cyclic:5", "e311f4dcf2dc338f2c874c235f090b93"),
    ("product(cyclic:2,cyclic:2)", "cyclic:5", "5dbee7afb87162f9eee47988e34b7333"),
    ("cyclic:2", "cyclic:9", "45e9338d4b677d413d122610d99fd2b6"),
    # non-abelian H on the engine path, and trivial G; recorded on the
    # command that collected and sorted one raw tuple per system
    ("symmetric:3", "cyclic:4", "c75b34e964d3c0472df88208536e3936"),
    ("quaternion:8", "cyclic:2", "cf226b2f45a97e3039ad944100ecdb23"),
    ("cyclic:4", "cyclic:1", "15f75f9745f6142df86e4bd48f55e670"),
]


@pytest.mark.parametrize("h,g,digest", ENUMERATE_DIGESTS)
def test_enumerate_stdout_matches_the_recorded_digest(h, g, digest, capsys):
    import hashlib

    code, out, _ = run_cli(["enumerate", "--h", h, "--g", g], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:32] == digest


def test_enumerate_stdout_on_a_relabelled_table_document(tmp_path, capsys):
    # D8 with its labels permuted: the documents carry the table itself, and
    # the automorphisms sort differently from those of `dihedral:8`
    import hashlib

    from crossedprod.groups import make_group

    d8 = make_group("dihedral:8")
    perm = [0, 5, 3, 7, 1, 6, 2, 4]
    table = [[0] * 8 for _ in range(8)]
    for x in range(8):
        for y in range(8):
            table[perm[x]][perm[y]] = perm[d8.table[x][y]]
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"order": 8, "table": table}))
    code, out, _ = run_cli(["enumerate", "--h", f"table:@{path}", "--g", "cyclic:2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 16 and doc["h"]["table"] == table
    assert hashlib.sha256(out.encode()).hexdigest()[:32] == "4a7604cbe798005289c77fa0de9eb359"


# the writer's oracle: the `enumerate` document as one dict per system, and
# one json.dumps over the whole document
def _enumerate_by_documents(args, cfg):
    from crossedprod.classify import _system_block
    from crossedprod.cli import _emit, _load_spec
    from crossedprod.groups import group_to_doc

    h = _load_spec(args.h, cfg)
    g = _load_spec(args.g, cfg)
    keys = _system_block(h, g, cfg.max_product_order)._keys
    n, m = h.order, g.order
    h_doc, g_doc = group_to_doc(h), group_to_doc(g)
    systems = [
        {"h": h_doc, "g": g_doc, "alpha": alpha, "f": f}
        for alpha, f in zip(
            keys[:, :m * n].reshape(-1, m, n).tolist(),
            keys[:, m * n:].reshape(-1, m, m).tolist(),
        )
    ]
    doc = {
        "command": "enumerate",
        "h": h_doc,
        "g": g_doc,
        "count": len(systems),
        "systems": systems,
    }

    def text(d):
        return f"enumerate: {d['count']} normalized crossed systems on ({h.name}, {g.name})\n"

    _emit(doc, cfg, text)


def _assert_enumerate_matches_the_documents(h, g, capsys):
    from crossedprod.cli import RunConfig, build_parser

    for out_format in ("json", "text"):
        argv = ["enumerate", "--h", h, "--g", g, "--out", out_format]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        args = build_parser().parse_args(argv)
        cfg = RunConfig(
            max_product_order=args.max_order,
            max_group_order=args.max_group_order,
            output_format=args.out,
        )
        _enumerate_by_documents(args, cfg)
        assert out == capsys.readouterr().out


# (descriptor, order)
WRITER_CATALOG = [
    ("cyclic:1", 1), ("cyclic:2", 2), ("cyclic:3", 3), ("cyclic:4", 4), ("cyclic:5", 5),
    ("cyclic:6", 6), ("cyclic:8", 8), ("product(cyclic:2,cyclic:2)", 4), ("symmetric:3", 6),
    ("dihedral:8", 8), ("quaternion:8", 8),
]
WRITER_PAIRS = [
    (h, g) for (h, n) in WRITER_CATALOG for (g, m) in WRITER_CATALOG if n * m <= 32
]


@pytest.mark.parametrize("h,g", WRITER_PAIRS)
def test_enumerate_writer_oracle_catalog_pairs(h, g, capsys):
    # every pair with |H||G| <= 32, up to (C2xC2, D8) with 188,416 systems
    _assert_enumerate_matches_the_documents(h, g, capsys)


@pytest.mark.parametrize(
    "h,g", [("cyclic:1", "cyclic:1"), ("cyclic:1", "symmetric:4"), ("symmetric:4", "cyclic:1")]
)
def test_enumerate_writer_oracle_trivial_ends(h, g, capsys):
    # one system: a single action row or a single cocycle row of zeros
    _assert_enumerate_matches_the_documents(h, g, capsys)


def test_enumerate_writer_oracle_named_table_document(tmp_path, capsys):
    # a relabelled D8 whose document carries a name that JSON must escape
    from crossedprod.groups import make_group

    d8 = make_group("dihedral:8")
    perm = [0, 5, 3, 7, 1, 6, 2, 4]
    table = [[0] * 8 for _ in range(8)]
    for x in range(8):
        for y in range(8):
            table[perm[x]][perm[y]] = perm[d8.table[x][y]]
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"order": 8, "table": table, "name": 'D₈ "relabelled"'}))
    _assert_enumerate_matches_the_documents(f"table:@{path}", "cyclic:2", capsys)
    _assert_enumerate_matches_the_documents("cyclic:3", f"table:@{path}", capsys)


@pytest.mark.parametrize("out_format", ["json", "text"])
def test_enumerate_errors_write_nothing_to_stdout(out_format, capsys):
    code, out, err = run_cli(
        ["enumerate", "--h", "cyclic:4", "--g", "cyclic:2", "--max-order", "4",
         "--out", out_format],
        capsys,
    )
    assert code == 2 and out == ""
    assert json.loads(err.splitlines()[-1])["error"]["type"] == "cap-exceeded"
    code, out, err = run_cli(
        ["enumerate", "--h", "cyclic:4", "--g", "cyclic:x", "--out", out_format], capsys
    )
    assert code == 1 and out == ""
    assert json.loads(err.splitlines()[-1])["error"]["type"] == "input"


def test_classify_trivial_g(capsys):
    code, out, _ = run_cli(
        ["classify", "--h", "cyclic:4", "--g", "cyclic:1", "--relation", "iso"], capsys
    )
    assert code == 0
    assert json.loads(out)["class_count"] == 1


def test_build_q8_system(tmp_path, capsys):
    doc = {
        "h": "cyclic:4",
        "g": "cyclic:2",
        "alpha": [[0, 1, 2, 3], [0, 3, 2, 1]],
        "f": [[0, 0], [0, 2]],
    }
    path = tmp_path / "q8.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["build", "--system", f"@{path}"], capsys)
    assert code == 0
    built = json.loads(out)
    assert built["group"]["order"] == 8
    assert built["iso_type"] == "Q8"
    assert built["is_abelian"] is False
    assert built["unit_pair"] == [0, 0]


def test_build_rejects_invalid_system(tmp_path, capsys):
    doc = {
        "h": "cyclic:4",
        "g": "cyclic:2",
        "alpha": [[0, 1, 2, 3], [0, 3, 2, 1]],
        "f": [[0, 0], [0, 1]],  # generator-valued cocycle: violates the axioms
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["build", "--system", f"@{path}"], capsys)
    assert code == 1
    assert out == ""
    assert "axiom" in json.loads(err.splitlines()[-1])["error"]["message"]


def test_decompose_quaternion(capsys):
    code, out, _ = run_cli(["decompose", "--group", "quaternion:8"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["leaf_orders"] == [2, 2, 2]
    assert doc["tree"]["kind"] == "node"
    assert doc["tree"]["normal_part"]["order"] == 4


def test_morphisms_command(tmp_path, capsys):
    triv = {
        "h": "cyclic:2",
        "g": "cyclic:2",
        "alpha": [[0, 1], [0, 1]],
        "f": [[0, 0], [0, 0]],
    }
    tw = dict(triv, f=[[0, 0], [0, 1]])
    pa = tmp_path / "a.json"
    pb = tmp_path / "b.json"
    pa.write_text(json.dumps(triv))
    pb.write_text(json.dumps(tw))
    code, out, _ = run_cli(
        ["morphisms", "--system-a", f"@{pa}", "--system-b", f"@{pb}"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 4
    assert all(not entry["is_iso"] for entry in doc["morphisms"])
    code, out, _ = run_cli(
        ["morphisms", "--system-a", f"@{pa}", "--system-b", f"@{pa}"], capsys
    )
    doc = json.loads(out)
    assert doc["count"] == 16
    isos = [e for e in doc["morphisms"] if e["is_iso"]]
    assert len(isos) == 6  # |Aut(C2 x C2)|
    stab = [e for e in doc["morphisms"] if e["stabilizes_ends"]]
    assert len(stab) == 2


def test_holder_command(capsys):
    code, out, _ = run_cli(["holder", "--n", "3", "--m", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["pairs"]) == 4
    assert sorted({p["group"] for p in doc["pairs"]}) == ["C6", "S3"]
    code, out, _ = run_cli(["holder", "--n", "3", "--m", "2", "--dedupe"], capsys)
    assert len(json.loads(out)["pairs"]) == 2
    code, out, _ = run_cli(["holder", "--n", "1", "--m", "4"], capsys)
    doc = json.loads(out)
    assert doc["degenerate"] is True and doc["pairs"][0]["group"] == "C4"



# sha256 prefix of `holder --n 6 --m 1` stdout, without and with --dedupe,
# recorded while each pair (i, 1) built its own table
@pytest.mark.parametrize("extra,digest", [
    ([], "6b147c456e3ce9372d06d038395fa578"),
    (["--dedupe"], "4e62a9fc1c277c58ec140a684c3521f1"),
])
def test_holder_m1_stdout_matches_the_recorded_digest(extra, digest, capsys):
    import hashlib

    code, out, _ = run_cli(["holder", "--n", "6", "--m", "1", *extra], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:32] == digest

def test_selfcheck(capsys):
    code, out, _ = run_cli(["selfcheck", "--samples", "150", "--seed", "5"], capsys)
    assert code == 0
    assert json.loads(out)["disagreements"] == 0


def test_usage_error_exit_code(capsys):
    assert main(["enumerate", "--h", "cyclic:2"]) == 1
    capsys.readouterr()
    assert main(["nonsense"]) == 1
    capsys.readouterr()
    for args in (
        ["holder", "--n", "0", "--m", "2"],
        ["holder", "--n", "3", "--m", "0"],
        ["enumerate", "--h", "cyclic:2", "--g", "cyclic:2", "--max-order", "-4"],
        ["enumerate", "--h", "cyclic:2", "--g", "cyclic:2", "--max-group-order", "-1"],
        ["selfcheck", "--samples", "-5"],
    ):
        code, out, err = run_cli(args, capsys)
        assert code == 1 and out == ""
        assert json.loads(err.splitlines()[-1])["error"]["type"] == "usage"


@pytest.mark.parametrize(
    "option, doc",
    [
        ("--system", [1, 2]),
        ("--system", {"h": "cyclic:2", "g": "cyclic:2", "alpha": 5, "f": [[0, 0], [0, 0]]}),
        ("--system", {"h": "cyclic:2", "g": "cyclic:2", "alpha": [[0, 1], [0, 1]], "f": 7}),
        ("--system", {"h": "cyclic:2", "g": "cyclic:2", "alpha": [[0, 5], [0, 1]], "f": [[0, 0], [0, 0]]}),
        ("--h", {"order": 2, "table": 5}),
        ("--h", {"order": 2, "table": [[0], [1, 0]], "renumber": True}),
        ("--h", {"order": 3, "table": [[1, 0, 7], [0, 1, 2], [7, 2, 0]], "renumber": True}),
    ],
)
def test_malformed_documents_are_input_errors(tmp_path, capsys, option, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if option == "--system":
        args = ["build", "--system", f"@{path}"]
    else:
        args = ["enumerate", "--h", f"table:@{path}", "--g", "cyclic:2"]
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == ""
    assert json.loads(err.splitlines()[-1])["error"]["type"] == "input"


def test_boolean_table_entries_are_input_errors(tmp_path, capsys):
    # JSON true and false are not integers, though Python's bool is an int
    for doc in (
        {"order": 2, "table": [[False, True], [True, False]]},
        [[False, True], [True, False]],
        {"order": True, "table": [[0]]},
    ):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(doc if isinstance(doc, dict) else {"table": doc}))
        code, out, err = run_cli(["decompose", "--group", f"table:@{path}"], capsys)
        assert code == 1 and out == ""
        assert json.loads(err.splitlines()[-1])["error"]["type"] == "input"


def test_boolean_system_entries_are_input_errors(tmp_path, capsys):
    good = {"h": "cyclic:2", "g": "cyclic:2", "alpha": [[0, 1], [0, 1]], "f": [[0, 0], [0, 0]]}
    for bad in (
        {"alpha": [[False, True], [False, True]], "f": [[False, False], [False, False]]},
        {"alpha": [[False, True], [False, True]]},
        {"f": [[0, 0], [0, True]]},
    ):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({**good, **bad}))
        code, out, err = run_cli(["build", "--system", f"@{path}"], capsys)
        assert code == 1 and out == ""
        assert json.loads(err.splitlines()[-1])["error"]["type"] == "input"
    path.write_text(json.dumps(good))
    assert run_cli(["build", "--system", f"@{path}"], capsys)[0] == 0


def test_parser_is_built_once_and_reused(capsys):
    from crossedprod.cli import build_parser

    assert build_parser() is build_parser()
    # a failed parse leaves the shared parser usable
    assert run_cli(["enumerate", "--h", "cyclic:2"], capsys)[0] == 1
    code, out, _ = run_cli(["enumerate", "--h", "cyclic:2", "--g", "cyclic:2"], capsys)
    assert code == 0 and json.loads(out)["count"] == 2


def test_main_calls_a_cmd_function_replaced_after_the_parser_is_built(monkeypatch, capsys, tmp_path):
    # a wrapper installed after the cached parser exists (a tracer, say)
    # still sees the calls: `main` looks the function up on every call
    from crossedprod import cli

    cli.build_parser()
    calls = []

    def replacement(args, cfg):
        calls.append(args.system)
        return 0

    monkeypatch.setattr(cli, "cmd_build", replacement)
    path = tmp_path / "system.json"
    assert run_cli(["build", "--system", f"@{path}"], capsys)[0] == 0
    assert calls == [f"@{path}"]


def test_internal_invariant_exit_code(monkeypatch, capsys):
    from crossedprod import cli
    from crossedprod.errors import InternalInvariantError

    def broken(group):
        raise InternalInvariantError("two computations disagree")

    monkeypatch.setattr(cli, "decompose", broken)
    code, out, err = run_cli(["decompose", "--group", "cyclic:4"], capsys)
    assert code == 3 and out == ""
    assert json.loads(err.splitlines()[-1]) == {
        "error": {"type": "internal-invariant", "message": "two computations disagree"}
    }


def test_invalid_descriptor_exit_code(capsys):
    code, out, err = run_cli(["enumerate", "--h", "cyclic:x", "--g", "cyclic:2"], capsys)
    assert code == 1
    assert json.loads(err.splitlines()[-1])["error"]["type"] == "input"


def test_cap_exceeded_exit_code(capsys):
    code, _, err = run_cli(
        ["enumerate", "--h", "cyclic:4", "--g", "cyclic:2", "--max-order", "4"], capsys
    )
    assert code == 2
    assert json.loads(err.splitlines()[-1])["error"]["type"] == "cap-exceeded"


def test_byte_cap_admits_h_of_order_256_and_refuses_257(capsys):
    # cocycle values are packed into bytes: |H| = 256 fits, 257 does not
    code, out, _ = run_cli(
        ["enumerate", "--h", "cyclic:256", "--g", "cyclic:1", "--max-order", "256"], capsys
    )
    assert code == 0 and '"count":1' in out and json.loads(out)["count"] == 1
    code, out, _ = run_cli(
        ["classify", "--h", "cyclic:256", "--g", "cyclic:1", "--max-order", "256",
         "--relation", "iso"],
        capsys,
    )
    assert code == 0 and json.loads(out)["class_count"] == 1
    code, out, err = run_cli(
        ["enumerate", "--h", "cyclic:257", "--g", "cyclic:1", "--max-order", "257",
         "--max-group-order", "257"],
        capsys,
    )
    assert code == 2 and out == ""
    error = json.loads(err.splitlines()[-1])["error"]
    assert error["type"] == "cap-exceeded" and "<= 256" in error["message"]


def test_aut_cap_refuses_c2_to_the_4_in_under_a_second(capsys):
    # the pair cap lets (C2^4, C2) through, |Aut(C2^4)| = 20,160 does not
    started = time.perf_counter()
    code, out, err = run_cli(
        ["enumerate", "--h", "product(product(cyclic:2,cyclic:2),product(cyclic:2,cyclic:2))",
         "--g", "cyclic:2"],
        capsys,
    )
    assert time.perf_counter() - started < 1
    assert code == 2 and out == ""
    assert json.loads(err.splitlines()[-1])["error"]["type"] == "cap-exceeded"


def test_table_descriptor_from_file(tmp_path, capsys):
    table = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    path = tmp_path / "c3.json"
    path.write_text(json.dumps({"order": 3, "table": table}))
    code, out, _ = run_cli(
        ["enumerate", "--h", f"table:@{path}", "--g", "cyclic:2"], capsys
    )
    assert code == 0
    # 3 cocycles with the trivial action plus the inversion system
    assert json.loads(out)["count"] == 4


def test_system_documents_round_trip(tmp_path, capsys):
    code, out, _ = run_cli(["enumerate", "--h", "cyclic:4", "--g", "cyclic:2"], capsys)
    systems = json.loads(out)["systems"]
    for k, sys_doc in enumerate(systems):
        path = tmp_path / f"sys{k}.json"
        path.write_text(json.dumps(sys_doc))
        code, out, _ = run_cli(["build", "--system", f"@{path}"], capsys)
        assert code == 0
        assert json.loads(out)["system"] == sys_doc


def test_output_is_deterministic_across_runs_and_workers():
    base = None
    for workers in ("1", "8"):
        code, out, err = run_cli_subprocess(
            ["classify", "--h", "cyclic:4", "--g", "cyclic:2",
             "--relation", "eq1", "--workers", workers]
        )
        assert code == 0
        if base is None:
            base = out
        assert out == base
    # and across repeated runs
    code, out2, _ = run_cli_subprocess(
        ["classify", "--h", "cyclic:4", "--g", "cyclic:2",
         "--relation", "eq1", "--workers", "1"]
    )
    assert out2 == base


def test_enumerate_and_holder_outputs_are_stable():
    for args in (
        ["enumerate", "--h", "cyclic:4", "--g", "cyclic:2"],
        ["holder", "--n", "4", "--m", "2"],
        ["decompose", "--group", "symmetric:4"],
    ):
        code1, out1, _ = run_cli_subprocess(args)
        code2, out2, _ = run_cli_subprocess(args)
        assert code1 == code2 == 0
        assert out1 == out2


def test_text_output_mode(capsys):
    code, out, _ = run_cli(
        ["classify", "--h", "cyclic:2", "--g", "cyclic:2", "--relation", "iso",
         "--out", "text"],
        capsys,
    )
    assert code == 0
    assert "2 classes" in out
