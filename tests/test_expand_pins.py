"""SHA-256 pins of ``triring hyper expand`` stdout at order 40.

The order-8 goldens in ``tests/golden`` are too short to exercise the
stride and digit-width logic of the exact series product, so these pins
hold the hash of the full stdout at ``--order 40`` on three triples:
1/5,1/4,1/2, 1/22,1/4,1/3 (large ramification at 1 and infinity) and
1/11,1/9,1/4.  The hashes were taken from the series core that
multiplied with a schoolbook ``Fraction`` double loop and inverted with
the term-by-term recurrence; the text pins at 1 and infinity already
print leading coefficients through ``Poly.to_text()``.  The pins on
the other three benchmark triples, 1/7,1/3,1/2, 1/8,1/6,1/3 and
1/13,1/4,1/3, were taken from the families that made y0 as the product
u0 * du0/dz and the square at 1 and infinity from four part products.
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
    ("1/7,1/3,1/2", "0", "json"): "229ee4f07e461bd46692f3760d88be409cb3c3b8d0506fd107701a53ea43bd23",
    ("1/7,1/3,1/2", "0", "text"): "6538d114a45530dfa5f2545a56f771c13fccb1dcfcba667015c6153dda0e930e",
    ("1/7,1/3,1/2", "1", "json"): "68ef3dbc5b0fe73b4c70cfb81cd53d9534c51e558f8336219833d1847b642fee",
    ("1/7,1/3,1/2", "1", "text"): "e832595746947a32a56b61ef3d5da5450ac0ed326483c287c91f5347db2d8357",
    ("1/7,1/3,1/2", "inf", "json"): "830f6a5da73327a63df8d75384888444ecfd60de8cbf439ccba110df617de8dc",
    ("1/7,1/3,1/2", "inf", "text"): "f05b4643c1c509de41fe62657c93cbf96a8300d722c9e60c672d477768fb0712",
    ("1/8,1/6,1/3", "0", "json"): "500aaf746c5df71e79250fee18593b0dd1c9817c1161aafdbace74c169918276",
    ("1/8,1/6,1/3", "0", "text"): "f1d4fddc4c13f2d9e7f1c8416df6d3e485c4bf165a14f8583a84759beab3e8fb",
    ("1/8,1/6,1/3", "1", "json"): "a07d705836a727528edd408a0ad2c2eeb68ba4a1a545498204d595d4fdfe314e",
    ("1/8,1/6,1/3", "1", "text"): "eb077ba1c2916a7c44c9eab777123560cd950d3d88e5e814677b8bcaece3a5b3",
    ("1/8,1/6,1/3", "inf", "json"): "e2f61341caaf257ed2823cd9270e825f494a08739bda25ece2a37ab80bac50db",
    ("1/8,1/6,1/3", "inf", "text"): "eb250cba78df40153f0f3656566cb936d7d7e4fed0c4eb12181599fc3bca7e35",
    ("1/13,1/4,1/3", "0", "json"): "d9ac8896d9944ff3d007e113335ae4d3e0db08cee9c0c2b8a4304f2af3155643",
    ("1/13,1/4,1/3", "0", "text"): "f1d4fddc4c13f2d9e7f1c8416df6d3e485c4bf165a14f8583a84759beab3e8fb",
    ("1/13,1/4,1/3", "1", "json"): "f018390f40f9acc58dc9908177e1d5518e28a45d7e8dd9caf7241d391f54aac1",
    ("1/13,1/4,1/3", "1", "text"): "8ac41b6f67cdd95cc3c26c7cca775a96e16edb0dd547f80de6828490228ccc3f",
    ("1/13,1/4,1/3", "inf", "json"): "7f80b9b51906e73b5b96a1230834898ec132519af003d128264a35921d77762d",
    ("1/13,1/4,1/3", "inf", "text"): "f6863869a20b67ed4b6c7a4e921c6c23874c1c131e2032788c1fc1ce0cd1319a",
}


@pytest.mark.parametrize("triple, point, emit", sorted(PINS))
def test_expand_order40_stdout_hash(triple, point, emit):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(["hyper", "expand", "--point", point, "--params", triple,
                    "--order", "40", "--emit", emit])
    assert code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == PINS[triple, point, emit]
