"""Golden reports: the SHA-256 of CLI stdout for fixed inputs.

The digests pin every byte of the reports (key order, rational formatting,
law spec strings), so a refactor of the law families or of the report
writers cannot change an output without failing here.  A JSON law file
must give the same bytes as the inline spec it encodes.  The `decompose`
digests pin the layers, the kernel of each layer and the degeneracy
witnesses, at order 3, for two K=4 laws at order 6, and for one K=4 law
at order 8; one more K=4 digest, at order 7, pins a statistic with large
numerators and denominators, whose projections need several lifting
steps of the modular Gram solve.  The deeper `oracle` digests pin the basis sizes of laws that
pass at every order and the witnesses of a K=4 and a K=2 law that fail at
every order, so a faster oracle cannot change a verdict or a witness.  The `simulate` digests pin every drawn color of fixed urn
trajectories and Monte Carlo tables, so a change to the draw cannot move a
single ball unnoticed.  The deeper `verify` digests reach orders where
the criterion's kernel index m has two or three entries and where the
degree of m is cut at n, so a regrouped sweep cannot change a value.
"""

import contextlib
import hashlib
import io
import json
import random

import pytest

from hoeffding.cli import main
from hoeffding.exactnum import compositions

LAWS = {
    "iid": "iid:p=1/2,1/3,1/6",
    "polya": "polya:alpha=1,2,3",
    "hls3": "hls:K=3,pi=1,nu=2,alpha=1/2",
    "hls3b": "hls:K=3,pi=3/2,nu=5/2,alpha=1/3",
    "hls4": "hls:K=4,pi=1,nu=2,alpha=1/4,1/4",
    "mixture": "mixture:w=1/2,1/2;p1=1/2,1/4,1/4;p2=1/4,1/4,1/2",
}

# (law, subcommand) -> (exit code, sha256 of stdout), all with --n-max 3
GOLDEN = {
    ("iid", "law-check"): (0, "a62944bcc9e7b1ac032c156c948c4fafef913d5a27e4272f4cf1f3b81a974b6e"),
    ("iid", "verify"): (0, "3959603002f1eac29f1361678343521bc0e890f54102b4f71d29b8eb6ccd2e65"),
    ("polya", "law-check"): (0, "51eb0548553746e72b58378d2fbad275127d26569b7cebf951a79a6c7a56cc77"),
    ("polya", "verify"): (0, "dddc07c24d5e8079b6c6cfc0ee16cda221bb9f12e3560ce7de4c78a56e5b707a"),
    ("hls3", "law-check"): (0, "2932794d576c7e7ccd887f015161bb1a1bb3d159e907312a16af67f60817f8a7"),
    ("hls3", "verify"): (0, "e30de47c4f629a4cd39a462a3d7779aa74cf87b533fb9bf02040108c401dff5b"),
    ("hls3b", "law-check"): (0, "a09aa6fe38810c9c641ee37e6e75d7cd49b3abe3c61bfceb76c60cd12289d749"),
    ("hls3b", "verify"): (0, "769a83c5bc5b415edeb68493da16b86fb7b6c0a12078a9db19b75e28bd7c43ac"),
    ("hls4", "law-check"): (0, "ed37092e3aeaff7ab39d40878df5d4cb79905e9d6a6eade90a59dcc00f819416"),
    ("hls4", "verify"): (0, "da3ec86620f8ad0f2298b7de84741a2780b33d0ef9a8cbc94a4705bcaa92d6e6"),
    ("mixture", "law-check"): (0, "872449d036ca886be10ca52e24c1b0fe8146feb7dcd88603cd151ba5c9a0c0d0"),
    ("mixture", "verify"): (1, "8f1cf72e3b6170fd7ae98ee9ac1f1f4b786dc423bebc74e576e6a8fece240624"),
    ("mixture", "oracle"): (1, "bcff59b653d4a00326f6cc92f76041f4f65d089099822c22f629f0aa112d1ddd"),
}

# name -> (law, --n-max, (exit code, sha256 of `oracle` stdout)); the two
# failing laws pin a witness kernel at every order, and the K=2 laws a basis
# of one kernel
ORACLE_GOLDEN = {
    "hls3": (LAWS["hls3"], 6, (0, "12eace6c151b7aa92f206765bd4e32eeea9a7b27d869dabb6427334425ac3783")),
    "hls4": (LAWS["hls4"], 5, (0, "040f4ffb6e40a7e0e6e44611a6b703335ba60b9ceba9666533bd948c02347837")),
    "polya": (LAWS["polya"], 6, (0, "840de1524109ba37c7dd13d86b4e0c47f7b2b555fef9d34273972af6a56b056b")),
    "mixture4": (
        "mixture:w=1/2,1/2;p1=1/2,1/4,1/8,1/8;p2=1/4,1/4,1/4,1/4", 5,
        (1, "053177b0047e7c6fa832383e0a52450deb72a81c90357aec70799dcee1cb8db2")),
    "polya2": (
        "polya:alpha=1,3/2", 6,
        (0, "10d41f290927121030fbfc9c7cb6df6c1dd7eecdebf1956f97e72416efc94899")),
    "mixture2": (
        "mixture:w=1/2,1/2;p1=1/2,1/2;p2=1/4,3/4", 6,
        (1, "ed28acec06c5225bd2d4842fd6bfd70572dbbcfcb51ad45209377aa5f3d57f8b")),
}

# law -> sha256 of `decompose` stdout for golden_statistic(3, K); all exit 0.
# decompose's exit 0 means the parts sum back to the statistic exactly, and
# that holds under every law; each layer's complete degeneracy is reported,
# not judged, so the mixture's layer 2, which is not completely degenerate,
# shows as a degeneracy_witness in the report and not as exit 1.  Whether
# a law is decomposable is verify's and oracle's verdict.
DECOMPOSE_GOLDEN = {
    "hls3": "2dd115777987464f46784dae3245ded1a547f403658be4b1ce8893c24fb483a5",
    "hls3b": "446c6f9c9c29a19e839545be220ee58e71d210a82b70cb9af7fd97ebf30efb7d",
    "hls4": "71fbfad3ce064de28a9046d6ac166d3f026ebc04f9f427495e39ab3309b47945",
    "iid": "b177c1bc789ebb5a2601439d55b5a9203d1ccacf2499a783ff91a950acea2902",
    "mixture": "a57abe4d51d85cbcb3b9ff9b0530cfbf2e928e485439f80d00a62f066aede2a9",
    "polya": "03dedb33e62fd103023fb0104607b38cdbeafde9218e7f5d332190b683566ee4",
}

# name -> (law, --n-max, (exit code, sha256 of `verify` stdout)); K = 4 and
# K = 5 give two- and three-entry kernel indices m
VERIFY_DEEP_GOLDEN = {
    "hls4": (LAWS["hls4"], 5, (0, "be8f38ad20c026937e27b5eb6166c7b9c4e4328c246cf3c09c14c323c93be54a")),
    "mixture": (LAWS["mixture"], 7, (1, "1729bfbc4e45370a4f36e4ca1ed9778b14008346733120cf836a46e3922bb3ce")),
    "hls5": (
        "hls:K=5,pi=2,nu=3,alpha=1/5,1/4,1/3", 4,
        (0, "e4001236fbe9b6885de1afbe15d042acf72936d00c1f53a21da8071505e2de5b")),
    "mixture4": (
        "mixture:w=1/3,2/3;p1=2/5,1/5,1/5,1/5;p2=1/5,1/5,1/5,2/5", 5,
        (1, "319efdad63b87a989cd4dfe189d1c371f0722b59858378159e3726a8446fb53c")),
}

# K=4 law -> sha256 of `decompose` stdout for golden_statistic(6, 4), whose
# kernels reach six tail layers; all exit 0
DECOMPOSE6_LAWS = {
    "hls4": LAWS["hls4"],
    "polya4": "polya:alpha=1,2,3,4",
}
DECOMPOSE6_GOLDEN = {
    "hls4": "e8d2dbd16209455236e4f55e9471024da392ec30a0515a5f5f2444df70268f75",
    "polya4": "60fcb257e5240bc1d53cea8913da83d7efc48b1bab880f0a188995a9ff4e6e05",
}
# sha256 of `decompose` stdout for golden_statistic(8, 4) under the K=4
# Polya law, whose largest Gram system is 120 x 120; exits 0
DECOMPOSE8_POLYA4_GOLDEN = "94a1bcfc5c3e2e48e6301185f81fadf0e069d303957065022f8732f6ab978a9d"
# sha256 of `decompose` stdout for large_valued_statistic() under the K=4
# Polya law: values up to +-10^4 over denominators up to 10^3 at order 7,
# so the exact solutions are large; exits 0
DECOMPOSE7_LARGE_GOLDEN = "f9ee04e4abc86048b8a05b1871a1be1b18fbd84af0a24bcbbcf98c13ae4b69dc"

# name -> (simulate arguments, (exit code, sha256 of stdout)); the --steps
# runs include a color that starts empty and a color of probability zero
SIMULATE_GOLDEN = {
    "polya-steps": (
        "--urn polya --initial 0,2,3 --steps 200 --seed 5",
        (0, "17f1b310611f2daf7fe6c5b925f6d15b62cdebd75a855dc52318e8103d8e7402")),
    "constant-steps": (
        "--urn constant --p 0,1/3,2/3 --steps 200 --seed 5",
        (0, "2d6abf325bdcf13b1312a742a057c6e0e99dd14791208f40ca910437feffe536")),
    "hls-steps": (
        "--urn hls --pi 1 --nu 2 --alpha 1/2 --steps 200 --seed 5",
        (0, "5a118a7d05da60c81334f0e67fef78737a4c37c445ce58c10dcd78c26f3de405")),
    "polya-samples": (
        "--urn polya --initial 1,2,3 --samples 2000 --n 3 --compare-exact --seed 7",
        (0, "c389f91db4228e557beb1da72e2a99aba7ba179baad4768a8830c54da039b889")),
    "constant-samples": (
        "--urn constant --p 1/6,1/3,1/2 --samples 2000 --n 3 --compare-exact --seed 7",
        (0, "28c6e79023461527ffdec4c9815bf27affe5dc05939eb486d85c8c6dd1ec0115")),
    "hls-samples": (
        "--urn hls --pi 1 --nu 2 --alpha 1/2 --samples 2000 --n 3 --compare-exact --seed 7",
        (0, "bd004fca61b9220c38fdf536f1a9c2f91f0e04951b031558a4fa70cf77eb0df6")),
    "hls4-split-samples": (
        "--urn hls --alpha 1/4,1/3 --initial 2,1,2,0 "
        "--samples 2000 --n 3 --compare-exact --seed 7",
        (0, "7c1356bb979cc00a4874a24945328b2f2fe30e7bdf47869ea6c450d95c450197")),
}


def golden_statistic(order, colors):
    """A fixed statistic with distinct rational values and no symmetry in
    the colors, as the JSON a statistic file holds."""
    values = []
    for c in compositions(order, colors):
        num = 1 + sum((j + 1) ** 2 * x for j, x in enumerate(c)) + 3 * c[0] * c[-1] - c[1] ** 3
        den = 1 + c[0] + 2 * c[1]
        values.append({"composition": list(c), "value": f"{num}/{den}"})
    return {"order": order, "K": colors, "values": values}


def large_valued_statistic():
    """An order-7 K=4 statistic with numerators up to +-10^4 and
    denominators up to 10^3, drawn by a fixed seed."""
    rng = random.Random(19)
    values = [
        {"composition": list(c), "value": f"{rng.randint(-10**4, 10**4)}/{rng.randint(1, 10**3)}"}
        for c in compositions(7, 4)
    ]
    return {"order": 7, "K": 4, "values": values}


def run_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name,command", sorted(GOLDEN))
def test_report_digest(name, command):
    argv = [command, "--law", LAWS[name], "--n-max", "3"]
    assert run_digest(argv) == GOLDEN[name, command]


def test_hls_json_file_matches_inline_spec(tmp_path):
    path = tmp_path / "hls.json"
    path.write_text(json.dumps(
        {"family": "hls", "K": 3, "pi": "1/1", "nu": "2/1", "alpha": ["1/2"]}))
    argv = ["verify", "--law", str(path), "--n-max", "3"]
    assert run_digest(argv) == GOLDEN["hls3", "verify"]


@pytest.mark.parametrize("name", sorted(VERIFY_DEEP_GOLDEN))
def test_deep_verify_digest(name):
    law, n_max, expected = VERIFY_DEEP_GOLDEN[name]
    assert run_digest(["verify", "--law", law, "--n-max", str(n_max)]) == expected


@pytest.mark.parametrize("name", sorted(ORACLE_GOLDEN))
def test_oracle_digest(name):
    law, n_max, expected = ORACLE_GOLDEN[name]
    assert run_digest(["oracle", "--law", law, "--n-max", str(n_max)]) == expected


@pytest.mark.parametrize("name", sorted(DECOMPOSE_GOLDEN))
def test_decompose_digest(name, tmp_path):
    colors = 4 if name == "hls4" else 3
    path = tmp_path / "statistic.json"
    path.write_text(json.dumps(golden_statistic(3, colors)))
    argv = ["decompose", "--law", LAWS[name], "--statistic", str(path)]
    assert run_digest(argv) == (0, DECOMPOSE_GOLDEN[name])


@pytest.mark.parametrize("name", sorted(DECOMPOSE6_GOLDEN))
def test_order6_decompose_digest(name, tmp_path):
    path = tmp_path / "statistic.json"
    path.write_text(json.dumps(golden_statistic(6, 4)))
    argv = ["decompose", "--law", DECOMPOSE6_LAWS[name], "--statistic", str(path)]
    assert run_digest(argv) == (0, DECOMPOSE6_GOLDEN[name])


def test_order8_decompose_digest(tmp_path):
    path = tmp_path / "statistic.json"
    path.write_text(json.dumps(golden_statistic(8, 4)))
    argv = ["decompose", "--law", DECOMPOSE6_LAWS["polya4"], "--statistic", str(path)]
    assert run_digest(argv) == (0, DECOMPOSE8_POLYA4_GOLDEN)


def test_large_valued_decompose_digest(tmp_path):
    path = tmp_path / "statistic.json"
    path.write_text(json.dumps(large_valued_statistic()))
    argv = ["decompose", "--law", DECOMPOSE6_LAWS["polya4"], "--statistic", str(path)]
    assert run_digest(argv) == (0, DECOMPOSE7_LARGE_GOLDEN)


@pytest.mark.parametrize("name", sorted(SIMULATE_GOLDEN))
def test_simulate_digest(name):
    args, expected = SIMULATE_GOLDEN[name]
    assert run_digest(["simulate", *args.split()]) == expected
