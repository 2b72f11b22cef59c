"""Golden-file pins for every file the three study commands write.

Each case runs one CLI call into a fresh directory and compares the sha256
of every written file, the order the command reports them in, and its
standard output (with the output directory replaced by a placeholder)
against digests taken from the reference implementation. Any change to
report layout, number formatting, CSV dialect or learning behaviour shows
up here as a digest mismatch.
"""

import hashlib

import pytest

from rlroute.cli import main

CASES = {
    "run": (
        ["run", "--topology", "t8", "--weights", "0,0,0,1,1", "--use-global"],
        {
            "report.json": "48502b6d4d470a2637989bddaf96c24dd2a2a2b4e5c8896c64400faf7c1fe104",
            "links.csv": "163859959ef5dd1f27f719471574e952bbfd5ae0edf9bff63600333246351397",
            "temp_path_lengths.csv": "e3b3fe96e4333c68c3da1c906e933df5a61866dd7df3fd264de82ba35c6a2713",
            "convergence.csv": "9c930a6ec8c3d88c994c31036c05f8295608288622856ef0c4fdfdf357631688",
        },
        "13205f37cc2e48b32c64af5941e20d7447eb8f3401196acd7f5e89128e3193e2",
    ),
    "gamma-study": (
        ["gamma-study", "--topology", "t8", "--weights", "0,0,0,1,1"],
        {
            "report.json": "17585d97ef0abf70183292e59875e97f93617f4d01d490ebc48368f287cba40c",
            "convergence.csv": "0a38d1c3cb89b00cc55c906569b58240b8eb9c14f4091391b14d92eadcb886bf",
        },
        "ddf4642bf836e6466c9f9481784bbe2ab951d1be0e9213c7055cbc7642d371ae",
    ),
    "compare-baseline": (
        ["compare-baseline", "--topology", "t7", "--weights", "0,0,0,0,1"],
        {
            "report.json": "736af1ff6d62cbeb97bbb1385c9a1c218a7895a4fa87460f36a7378a7ba426c3",
            "links.csv": "772843a4ada4736c707747e59a1b991da07ae99f192f827448cc16077aba399e",
            "links_baseline.csv": "c3b2e35e04c32412a512a34a494ac27403cafdfe75032c9473953ac09cc33710",
        },
        "5819b15d185ae93df746c7347799aa47721c6f7ef316be6f0b2e28ab6437c2d2",
    ),
    # The cases above run at epsilon 0 without loss; these two pin the
    # per-hop loss draws, then the same draws interleaved with exploration.
    "gamma-study-lossy": (
        ["gamma-study", "--topology", "t8", "--weights", "0,0,0,1,1", "--loss-mode", "bernoulli"],
        {
            "report.json": "45e59ddc40f6a4db8806a120f90a4d88f9c3f94520a96d4b8ed500ca0dab079f",
            "convergence.csv": "0a38d1c3cb89b00cc55c906569b58240b8eb9c14f4091391b14d92eadcb886bf",
        },
        "ddf4642bf836e6466c9f9481784bbe2ab951d1be0e9213c7055cbc7642d371ae",
    ),
    "gamma-study-lossy-exploring": (
        [
            "gamma-study", "--topology", "t8", "--weights", "0,0,0,1,1", "--loss-mode", "bernoulli",
            "--epsilon", "0.1",
        ],
        {
            "report.json": "549de27f2da6ee1553efd05a4dd7f1b2d472df4396b092e67af8c902530336f8",
            "convergence.csv": "a52784e81a2ca65965fac7566e37d793bbba0fd6669a795f01c198f9e8e9375b",
        },
        "9ac2b68738187d135ea2ff1f7f711ee8e623dbe7705b01c6583de23c0c6caee6",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", list(CASES))
def test_study_outputs_match_pinned_digests(name, tmp_path, capsys):
    argv, files, stdout_digest = CASES[name]
    out_dir = tmp_path / "out"
    assert main(argv + ["--out", str(out_dir)]) == 0
    stdout = capsys.readouterr().out
    written = [line.removeprefix("wrote ") for line in stdout.splitlines() if line.startswith("wrote ")]
    # The command lists its files in a fixed order; the pins list them in it.
    assert written == [str(out_dir / f) for f in files]
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(files)
    digests = {f: _sha256((out_dir / f).read_bytes()) for f in files}
    assert digests == files
    assert _sha256(stdout.replace(str(out_dir), "<out>").encode()) == stdout_digest
