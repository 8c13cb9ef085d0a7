"""SHA-256 pins of ``triring hyper expand`` stdout at order 40.

The order-8 goldens in ``tests/golden`` are too short to exercise the
stride and digit-width logic of the exact series product, so these pins
hold the hash of the full stdout at ``--order 40`` on three triples:
1/5,1/4,1/2, 1/22,1/4,1/3 (large ramification at 1 and infinity) and
1/11,1/9,1/4.  The hashes were taken from the series core that
multiplied with a schoolbook ``Fraction`` double loop and inverted with
the term-by-term recurrence; the text pins at 1 and infinity already
print leading coefficients through ``Poly.to_text()``.
"""

import contextlib
import hashlib
import io

import pytest

from triring.cli import run

PINS = {
    ("1/5,1/4,1/2", "0", "json"): "61a13022d4210cf3d7ff343c7f6802736a251b4844b2f76ce05eb49dbebcf1f8",
    ("1/5,1/4,1/2", "0", "text"): "6538d114a45530dfa5f2545a56f771c13fccb1dcfcba667015c6153dda0e930e",
    ("1/5,1/4,1/2", "1", "json"): "c747420f07b287adbcdb5e2bcbdf5c88a6a9651c09fd39e11352fcffc377f71d",
    ("1/5,1/4,1/2", "1", "text"): "7a9e18c60ba3c4d8f009811f2358d94f18548ef613cd9db3a6520c21c7260718",
    ("1/5,1/4,1/2", "inf", "json"): "6b6552467e939b6e3ca914dbbc434082154c819a46a38bedfb09779c9ecc066c",
    ("1/5,1/4,1/2", "inf", "text"): "9a9b8d37334f42c54dd612edefeee508d3ebb413c567a1feb9bd6317c752376e",
    ("1/22,1/4,1/3", "0", "json"): "97430d7539d8ea66bcf706444cc02603a0346cc8e1471747068ad3843e258a11",
    ("1/22,1/4,1/3", "0", "text"): "f1d4fddc4c13f2d9e7f1c8416df6d3e485c4bf165a14f8583a84759beab3e8fb",
    ("1/22,1/4,1/3", "1", "json"): "ad3870a24c9810b138da7500c5d0c58ed783c850bc63bff053bb17764f5c3a1f",
    ("1/22,1/4,1/3", "1", "text"): "5d6fa62aa8b17397cb26cb08754c15ce99b31d57b5bc60c92b4adb82fd2a8343",
    ("1/22,1/4,1/3", "inf", "json"): "0081e3ec99e3acde7603d4ae10c0909e2166b18eb3b8c2dba6dcdc59c4a13461",
    ("1/22,1/4,1/3", "inf", "text"): "3d7614ac797a57c6ea3cb50b192c5398abb2bef5ef53e3e26b800612e1b4d044",
    ("1/11,1/9,1/4", "0", "json"): "51206f62ca8669068f351322630195e05d3b8c0c6fd31e1fd52ec245ca39c5c6",
    ("1/11,1/9,1/4", "0", "text"): "c151821a1958abdd542380438830c7d0173f70edfbb41a4aa644dee7c3cf7840",
    ("1/11,1/9,1/4", "1", "json"): "7db387acd722c97416a5dc0ea2275abad90078a7c5df6bd10623ee9d41040e9a",
    ("1/11,1/9,1/4", "1", "text"): "4e00560652b6b18abeff8ac049318d96164fa7f3d0e3b1ab98906c0fd8426821",
    ("1/11,1/9,1/4", "inf", "json"): "e8b90147f1100030f1dea0d73ba7ef5802f507e6705413582193cd00f70a20f8",
    ("1/11,1/9,1/4", "inf", "text"): "6b9eaa82a7e77f7c2dd26438461f7751312737142cef438cc380bbfc0ac8b5ed",
}


@pytest.mark.parametrize("triple, point, emit", sorted(PINS))
def test_expand_order40_stdout_hash(triple, point, emit):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(["hyper", "expand", "--point", point, "--params", triple,
                    "--order", "40", "--emit", emit])
    assert code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == PINS[triple, point, emit]
