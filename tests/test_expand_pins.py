"""SHA-256 pins of ``triring hyper expand`` stdout.

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

``MORE_PINS`` holds the benchmark's other calls on its six triples
(orders 24 and 48 at 0, order 24 at 1 and at infinity) and infinity at
orders 2 to 6 on 1/22,1/4,1/3 and 1/8,1/6,1/3, where the cut of the
factor -x/(1+x) = 1/(z-1), known below x**N, decides the precision of
y2.  They were taken from the families that multiplied by 1/z and
1/(z-1) as full series products.
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

MORE_PINS = {
    ("1/5,1/4,1/2", "0", 24, "json"): "eb21bd944d62cdfd3e4fa53e7946099baeb088097ace98e634a0f80023357883",
    ("1/5,1/4,1/2", "0", 24, "text"): "6538d114a45530dfa5f2545a56f771c13fccb1dcfcba667015c6153dda0e930e",
    ("1/5,1/4,1/2", "0", 48, "json"): "5babf30ee9fad3a3854ec46decc48da1e7e1f3499dfcfc538c8a2d4571892c4b",
    ("1/5,1/4,1/2", "0", 48, "text"): "6538d114a45530dfa5f2545a56f771c13fccb1dcfcba667015c6153dda0e930e",
    ("1/5,1/4,1/2", "1", 24, "json"): "4083217ff9adb5728f2258f6fcf101077b7c27fcc2ebe75a82836151087c7a10",
    ("1/5,1/4,1/2", "1", 24, "text"): "7a9e18c60ba3c4d8f009811f2358d94f18548ef613cd9db3a6520c21c7260718",
    ("1/5,1/4,1/2", "inf", 24, "json"): "8c1d328664842deba6d018e7d411e0e107fedd2532654cbb887a3b4c1203eb23",
    ("1/5,1/4,1/2", "inf", 24, "text"): "9a9b8d37334f42c54dd612edefeee508d3ebb413c567a1feb9bd6317c752376e",
    ("1/7,1/3,1/2", "0", 24, "json"): "1cafa19cafcbe7eee280ed3f8a0cfaf75c23602cd3cc21a09f66995ea8470c79",
    ("1/7,1/3,1/2", "0", 24, "text"): "6538d114a45530dfa5f2545a56f771c13fccb1dcfcba667015c6153dda0e930e",
    ("1/7,1/3,1/2", "0", 48, "json"): "c78f978159c0d2408f9088cd6d52e565388a9ce40bcd947fb72ebeb2e71cf5c0",
    ("1/7,1/3,1/2", "0", 48, "text"): "6538d114a45530dfa5f2545a56f771c13fccb1dcfcba667015c6153dda0e930e",
    ("1/7,1/3,1/2", "1", 24, "json"): "bcdee60319c0ff8eb7ec2e005cb82d35dc92da2e06564ba7c105cbf411687e6d",
    ("1/7,1/3,1/2", "1", 24, "text"): "e832595746947a32a56b61ef3d5da5450ac0ed326483c287c91f5347db2d8357",
    ("1/7,1/3,1/2", "inf", 24, "json"): "b3b3b0a0ef81d3e7e921cc7b9c2641555b61f640e44ea30486903661dfb8d043",
    ("1/7,1/3,1/2", "inf", 24, "text"): "f05b4643c1c509de41fe62657c93cbf96a8300d722c9e60c672d477768fb0712",
    ("1/8,1/6,1/3", "0", 24, "json"): "40675694f55e544960d649132649010db9fa08963396a62f04b75f64ff2b1ef7",
    ("1/8,1/6,1/3", "0", 24, "text"): "f1d4fddc4c13f2d9e7f1c8416df6d3e485c4bf165a14f8583a84759beab3e8fb",
    ("1/8,1/6,1/3", "0", 48, "json"): "5e657a55541580431713f455a4241553aee1cf4ab22bb37898879256e364a390",
    ("1/8,1/6,1/3", "0", 48, "text"): "f1d4fddc4c13f2d9e7f1c8416df6d3e485c4bf165a14f8583a84759beab3e8fb",
    ("1/8,1/6,1/3", "1", 24, "json"): "5575b6e49bd91c8258b582ec706d4c53205afd5b24387caa78ae56489fadeb16",
    ("1/8,1/6,1/3", "1", 24, "text"): "eb077ba1c2916a7c44c9eab777123560cd950d3d88e5e814677b8bcaece3a5b3",
    ("1/8,1/6,1/3", "inf", 24, "json"): "91f65cd0fea27ce1ddf5d3f2428b905c39d442915203f247ec6b8ba5299e696c",
    ("1/8,1/6,1/3", "inf", 24, "text"): "eb250cba78df40153f0f3656566cb936d7d7e4fed0c4eb12181599fc3bca7e35",
    ("1/13,1/4,1/3", "0", 24, "json"): "b1ed37ef1fb4ac384cb0fb6dfb0a709513e67e0a6cd8326a8f07d7c4207e9ce6",
    ("1/13,1/4,1/3", "0", 24, "text"): "f1d4fddc4c13f2d9e7f1c8416df6d3e485c4bf165a14f8583a84759beab3e8fb",
    ("1/13,1/4,1/3", "0", 48, "json"): "adda4eb1fddfc0c27c38d1eb27837e10ecfd50f94cf49cc27625b899b2cd86da",
    ("1/13,1/4,1/3", "0", 48, "text"): "f1d4fddc4c13f2d9e7f1c8416df6d3e485c4bf165a14f8583a84759beab3e8fb",
    ("1/13,1/4,1/3", "1", 24, "json"): "4bd509abd7e34008d9afcbc1a8801038cf1a0367888f4f67aabdab570fc1aa4b",
    ("1/13,1/4,1/3", "1", 24, "text"): "8ac41b6f67cdd95cc3c26c7cca775a96e16edb0dd547f80de6828490228ccc3f",
    ("1/13,1/4,1/3", "inf", 24, "json"): "576d66df436340c983dd81745a226b3671ca7675ed4c209994371385f152c4ed",
    ("1/13,1/4,1/3", "inf", 24, "text"): "f6863869a20b67ed4b6c7a4e921c6c23874c1c131e2032788c1fc1ce0cd1319a",
    ("1/11,1/9,1/4", "0", 24, "json"): "80de0765babea088254df04a9ebb3737fd10a199f7be5e96ff51b1194d3464aa",
    ("1/11,1/9,1/4", "0", 24, "text"): "c151821a1958abdd542380438830c7d0173f70edfbb41a4aa644dee7c3cf7840",
    ("1/11,1/9,1/4", "0", 48, "json"): "c60d4b0d05016cbb15fae63630fffd8e0b1c3be5adccac973db80e51d829bff0",
    ("1/11,1/9,1/4", "0", 48, "text"): "c151821a1958abdd542380438830c7d0173f70edfbb41a4aa644dee7c3cf7840",
    ("1/11,1/9,1/4", "1", 24, "json"): "fe4ea98fa2b8ba63dc962eab8df8c61daada2f07fe55959535ac5ce75b469f44",
    ("1/11,1/9,1/4", "1", 24, "text"): "4e00560652b6b18abeff8ac049318d96164fa7f3d0e3b1ab98906c0fd8426821",
    ("1/11,1/9,1/4", "inf", 24, "json"): "2b39faa194227e398549790d9aa72aaaf7d006fbd327aa1dbd19719c840a747a",
    ("1/11,1/9,1/4", "inf", 24, "text"): "6b9eaa82a7e77f7c2dd26438461f7751312737142cef438cc380bbfc0ac8b5ed",
    ("1/22,1/4,1/3", "0", 24, "json"): "b781c890f3583bac7343c52312cbc1788b29390df8fc63d75f7ff0ee7e3aab90",
    ("1/22,1/4,1/3", "0", 24, "text"): "f1d4fddc4c13f2d9e7f1c8416df6d3e485c4bf165a14f8583a84759beab3e8fb",
    ("1/22,1/4,1/3", "0", 48, "json"): "503143d0473fa1be0f57de35f728cf4af264ef70373a90242cde664b92aeb39b",
    ("1/22,1/4,1/3", "0", 48, "text"): "f1d4fddc4c13f2d9e7f1c8416df6d3e485c4bf165a14f8583a84759beab3e8fb",
    ("1/22,1/4,1/3", "1", 24, "json"): "bff3165e2e5893e98edd21bbd1f2aaa43fa8c6cc2154598d30a9141a03299e7a",
    ("1/22,1/4,1/3", "1", 24, "text"): "5d6fa62aa8b17397cb26cb08754c15ce99b31d57b5bc60c92b4adb82fd2a8343",
    ("1/22,1/4,1/3", "inf", 24, "json"): "fa6cc7821eac21ad66e1d544027ef484926d2bf04f3204443ef7d1e73bcf1958",
    ("1/22,1/4,1/3", "inf", 24, "text"): "3d7614ac797a57c6ea3cb50b192c5398abb2bef5ef53e3e26b800612e1b4d044",
    ("1/22,1/4,1/3", "inf", 2, "json"): "f038b1400381b862869d172a7e7d86e1bfcb08af8c0522427515d2efe9fdb4ec",
    ("1/22,1/4,1/3", "inf", 2, "text"): "3d7614ac797a57c6ea3cb50b192c5398abb2bef5ef53e3e26b800612e1b4d044",
    ("1/22,1/4,1/3", "inf", 3, "json"): "5bf4a510479294ae4deeb8331291d32d488f222bedf06572361c3ad5a72b90f4",
    ("1/22,1/4,1/3", "inf", 3, "text"): "3d7614ac797a57c6ea3cb50b192c5398abb2bef5ef53e3e26b800612e1b4d044",
    ("1/22,1/4,1/3", "inf", 4, "json"): "ebff8ee7f53f92ec4c20cc0b1b79f8236ecf0b54aaadd69192fec45b2a69c783",
    ("1/22,1/4,1/3", "inf", 4, "text"): "3d7614ac797a57c6ea3cb50b192c5398abb2bef5ef53e3e26b800612e1b4d044",
    ("1/22,1/4,1/3", "inf", 5, "json"): "97445dd345c46e181396c27ef8879e3668b068f47a66c9a4897da0e26da2ce23",
    ("1/22,1/4,1/3", "inf", 5, "text"): "3d7614ac797a57c6ea3cb50b192c5398abb2bef5ef53e3e26b800612e1b4d044",
    ("1/22,1/4,1/3", "inf", 6, "json"): "36ba2ae5f0864482adf90b15f9bd6d99293616162467b3ac78b3617b492cc293",
    ("1/22,1/4,1/3", "inf", 6, "text"): "3d7614ac797a57c6ea3cb50b192c5398abb2bef5ef53e3e26b800612e1b4d044",
    ("1/8,1/6,1/3", "inf", 2, "json"): "161ae983493a28065ad4b53affe4d5817e1c9da4f97ccc96b26146341a029c0e",
    ("1/8,1/6,1/3", "inf", 2, "text"): "eb250cba78df40153f0f3656566cb936d7d7e4fed0c4eb12181599fc3bca7e35",
    ("1/8,1/6,1/3", "inf", 3, "json"): "74f539900cbeade78fe2eed3c2f54a33245f7199d8cefcc73d7fea8d095fa1f0",
    ("1/8,1/6,1/3", "inf", 3, "text"): "eb250cba78df40153f0f3656566cb936d7d7e4fed0c4eb12181599fc3bca7e35",
    ("1/8,1/6,1/3", "inf", 4, "json"): "c034d18b600bcabab6f209c83e3e4bc6c6b0770677a2eaa121b2676563f83f54",
    ("1/8,1/6,1/3", "inf", 4, "text"): "eb250cba78df40153f0f3656566cb936d7d7e4fed0c4eb12181599fc3bca7e35",
    ("1/8,1/6,1/3", "inf", 5, "json"): "3e2d725da2c8a578987f4b1669c8ae3e964d5119ddf9bee52823fe70ee91e417",
    ("1/8,1/6,1/3", "inf", 5, "text"): "eb250cba78df40153f0f3656566cb936d7d7e4fed0c4eb12181599fc3bca7e35",
    ("1/8,1/6,1/3", "inf", 6, "json"): "a381be1c55d3b1f953d1cb1ec6f0b64a1cdd0f4eb672bd1d39302072d13a90f6",
    ("1/8,1/6,1/3", "inf", 6, "text"): "eb250cba78df40153f0f3656566cb936d7d7e4fed0c4eb12181599fc3bca7e35",

}


def _stdout_hash(triple, point, order, emit):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(["hyper", "expand", "--point", point, "--params", triple,
                    "--order", str(order), "--emit", emit])
    assert code == 0
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("triple, point, emit", sorted(PINS))
def test_expand_order40_stdout_hash(triple, point, emit):
    assert _stdout_hash(triple, point, 40, emit) == PINS[triple, point, emit]


@pytest.mark.parametrize("triple, point, order, emit", sorted(MORE_PINS))
def test_expand_stdout_hash(triple, point, order, emit):
    assert _stdout_hash(triple, point, order, emit) == MORE_PINS[triple, point, order, emit]
