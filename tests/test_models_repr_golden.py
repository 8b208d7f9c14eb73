"""The socks builtins' ``repr`` hashes to pinned digests.

``repr`` shows every field of a model in order: the cause ids, weights and
order, the order of the context blocks and of each response table's keys,
and every entry's type.  The ``show`` goldens pin the canonical document,
which is written in scenario and cause order whatever order the dicts keep,
so this pins the rest.
"""

import hashlib

import pytest

from bellbox import socks_color, socks_off, socks_on

DIGESTS = {
    socks_on: "942df45e27a5d29d28ad4215b5c962d84726423a56356a93c1e345a4e1ced732",
    socks_off: "70a71763a214602906bd4c6376ecc4daf9c1528f7d5d359bf4a8726938b49515",
    socks_color: "446c09d9669554b474f13f802ee14d74b72cc539add5f093aaf502695d7be1c6",
}


@pytest.mark.parametrize("builder", list(DIGESTS), ids=lambda f: f.__name__)
def test_builtin_model_repr_is_pinned(builder):
    assert hashlib.sha256(repr(builder()).encode("utf-8")).hexdigest() == DIGESTS[builder]
