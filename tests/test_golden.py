"""Golden CLI outputs: stdout digests and exit codes pinned byte for byte.

The digests were recorded before the sequence rules were consolidated into
one home each (one walker, one catalog table, one determinant formula); a
refactor of the engines must leave every one of them unchanged. The
commands run in-process through ``cli.main``.
"""
import contextlib
import hashlib
import io

import pytest

from biperiodic import cli
from test_acceptance import DOCUMENTED_COMMANDS

DOCUMENTED_DIGESTS = [
    (0, "d23faf7d1983ef9a29999c00d55a07925e13912cda33c80e94c904e0ef71fed9"),
    (0, "e3cb004837bbdb9bc7a231279e2a3852d162dc2ce8206f3af49a7ac7450ff8a0"),
    (0, "aaf47ae85eaa1f921db016c592f25486a127abb3163ee4edf2648c19d1853adf"),
    (0, "707218173ce3fb0d117267e8b673b5411557deb3e07a65b8ac27653413830c4c"),
    (0, "4df7712301a428e23e74c6ea11d2ad38c7efe9271376126c093441f56c927f5c"),
    (0, "aef2b1e594cee936349e1e759e26eb50e5ca736e298c3c5ebab3dba8608d91ce"),
    (0, "9b80982b88e0a882ca1024d8b2b64d2a7ab76ef17b793e748c7a36af855f81b5"),
    (0, "43dc59303710d8725ac2efaf54f0d57198ed17c5d39b002c419bd2cdaa77bc72"),
    (0, "f84672a00d0d32b6798343be22034cca3cbf95c69e59f6d7415ce1f558d124b4"),
    (0, "3f3dfdd0b2bd3ab6ed7fb7bcb5bc5f6f5a7d2c6d19d4cddf54b5a09d6da63b73"),
    (0, "5f157c8acf4c97a8627fca70675dfff9fa130658a507e8aab7afbb15a3f3605d"),
    (0, "696ef662c5fc5c31d85128150bb64134620762d0085acc25f183f8096da20e64"),
]

#: Commands beyond the documented ones that reach the code paths the
#: consolidation touches: determinants at n <= 0 and on the singular line,
#: closed forms at ab + 4 = 0, and small matrix-form / det-power grids.
EXTRA_GOLDEN = [
    (("matrix", "--a", "2", "--b", "3", "--n", "-3", "--show", "all"),
     0, "539611f89c7339941b64e32e6ba9dde166ff1a36dffeb3668f45ea217666123c"),
    (("matrix", "--a", "1/2", "--b", "-3/2", "--n", "0", "--show", "det"),
     0, "9b7cdd61cf87691d834cd890e146db5e424bf2b260ca4be5974ee72029d38079"),
    (("matrix", "--a", "1", "--b", "-4", "--n", "0", "--show", "det"),
     0, "2633694dac687ac0ce1e8506168d558f6a68cd68c344b8b983d8d14cebe5f9b0"),
    (("matrix", "--a", "1", "--b", "-4", "--n", "-1", "--show", "det"),
     3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("matrix", "--a", "2", "--b", "-2", "--n", "5", "--show", "all"),
     0, "17710649a7a219a2e2aca4e5fda0e85bb683c8b94eb658edc17ad7d94a0d7428"),
    (("matrix", "--a", "-3/2", "--b", "1/2", "--n", "7", "--show", "closed-form"),
     0, "98de4e46e8b28bd9f5187b45cd4cdb016f2136e2025ee889132ba746c53de6d4"),
    (("verify", "--identity", "matrix-form", "--a-set", "1,2,-2", "--b-set", "-2,3,1/2",
      "--n-range", "1..12"),
     0, "45329c100aa48c8b3868cbdca235cabbf704992a38b6ea51dce1390b25e54713"),
    (("verify", "--identity", "det-power", "--a-set", "1,2", "--b-set", "-4,-2,3",
      "--n-range", "1..9"),
     0, "8ad8bc2e3a5b35bb83461496cb9faf465a1c43990a0b02254bad42467b2d4993"),
    (("verify", "--identity", "thm4-i-printed", "--a-set", "2,3", "--b-set", "3,2",
      "--n-range", "1..9"),
     0, "f3006ee25ba29600f69040f43dd7937326f8a8f347a7b8dd116b65840c759767"),
    # the whole catalog where lcm(den a, den b) is 3, 6, 10 and 15, not only
    # the 1 and 2 of the default grid, with negative indices
    (("verify", "--identity", "all", "--a-set", "5/3,-2/5", "--b-set", "-4/3,7/2",
      "--n-range", "-8..8"),
     0, "902fccf5f64288575692264ae4040c441d4be50293f35d141871925bf8d6d186"),
    # the whole catalog where a and b are integers, so the terms are plain
    # ints: ab = -4 at (2, -2), negative indices, and counterexamples of both
    # erratum entries
    (("verify", "--identity", "all", "--a-set", "2,-1,3", "--b-set", "-2,1,-3",
      "--n-range", "-8..8"),
     0, "4cb794da507d3660263ca484311c51930902a1019a39f65b6a07a5dbf051f94d"),
    # the whole catalog on windows that start at odd indices, with an m range
    # unlike the n range, and an n range reaching below det-power's and
    # matrix-form's minimum index 1
    (("verify", "--identity", "all", "--a-set", "5/3,-2", "--b-set", "-7/2,2",
      "--n-range", "-5..5", "--m-range", "-3..4"),
     0, "73151150d9e49fe1de0cd44b44b43534b565edf3811bb648ea3a8dabd8421bd3"),
    # matrix powers whose core entries cancel against a: a = 2 shares the
    # prime 2 with s = 2 (ab = 1/2), and a = 1/2 has a denominator that
    # divides some numerators N (ab = 1/3)
    (("matrix", "--a", "2", "--b", "1/4", "--n", "9", "--show", "all"),
     0, "ee57a31cb8508890638b9d1f22055a9d854cfe709803a70771f3da188d56e61f"),
    (("matrix", "--a", "1/2", "--b", "2/3", "--n", "-10", "--show", "entries"),
     0, "dc411e6953e569d52339e46a8281392091b11cdf61114581bbc45e18aac4c98d"),
    # a duplicated value in the a set, so the same point is checked twice and
    # its counterexamples come back twice, in order
    (("verify", "--identity", "thm6-vi-printed", "--a-set", "1/2,1/2,-3", "--b-set", "3,-3/2",
      "--n-range", "-3..4", "--m-range", "-2..5"),
     0, "abf14fe9c004b3e10e6708bce09b8bc42a8d46f8b530f9fa5b97d965b8ae48e9"),
    # the whole catalog on boxes that start at odd indices, so each two-index
    # grid's parity classes begin off the box's first row and column
    (("verify", "--identity", "all", "--a-set", "5/3,-2", "--b-set", "-7/2,1/2",
      "--n-range", "-7..6", "--m-range", "-3..8"),
     0, "1f908e7c9deb0c5dd859627078280e66174d8e8be05842c1d0735e0b1fb2555c"),
    # rows of table and term in both formats: a window across 0 with
    # fractional terms, kinds in the reverse of the default order, a
    # one-row range, and each term method
    (("table", "--a", "5/3", "--b", "-2/3", "--n-range", "-150..250", "--format", "csv"),
     0, "d9feefdb376a25afd5895d11a58f921ac978e894658affc6c9f2b6e1e867899d"),
    (("table", "--a", "5/3", "--b", "-2/3", "--n-range", "-150..250", "--kinds", "lucas,fib"),
     0, "669d6081b0279b3359dff7334eda4b295ec688326487696af2b997a5e82fe739"),
    (("table", "--a", "1/2", "--b", "-3", "--n-range", "0..0"),
     0, "49d9b5aeaa27127f0740b02b311733311660236dede3be6c5f43b96ffeaa70e1"),
    (("table", "--a", "1/2", "--b", "-3", "--n-range", "0..0", "--format", "csv"),
     0, "6d911a2f9cccba4694a65c77cedd67adb00113134eb803d66f2de4f8f04fc143"),
    (("term", "--kind", "lucas", "--a", "2", "--b", "3", "--n-range", "-6..6",
      "--method", "binet", "--format", "csv"),
     0, "a9c3f1adf42d876826a63f255adb2fbc2babfdd93db99934cf5770bd596a804e"),
    (("term", "--kind", "fib", "--a", "1/2", "--b", "-3/2", "--n-range", "-4..8"),
     0, "d3db9f45f6b6c357e151646fbb96b7d71b6001c39bd0e6d55c145213ab77a8fd"),
    (("term", "--kind", "fib", "--a", "5/3", "--b", "-4/3", "--n", "7",
      "--method", "matrix", "--format", "csv"),
     0, "20069f9ea700a19bae271391819e599837213f0aed34cd5c43b555189ac02cf4"),
]

GOLDEN = [
    (args, code, digest)
    for args, (code, digest) in zip(DOCUMENTED_COMMANDS, DOCUMENTED_DIGESTS, strict=True)
] + EXTRA_GOLDEN


@pytest.mark.parametrize(
    "args, code, digest", GOLDEN, ids=[" ".join(args) for args, _, _ in GOLDEN]
)
def test_stdout_digest_and_exit_code(args, code, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        got = cli.main(list(args))
    assert (got, hashlib.sha256(out.getvalue().encode()).hexdigest()) == (code, digest)
