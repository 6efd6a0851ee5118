import pytest

from trifold.grower import grow_to_radius
from trifold.samples import load_sample

# trusted radii large enough for every suite run below; growing is the
# expensive step, so the grown balls are shared session-wide.  The
# all-geodesics machine of a half-girth-2 sample is certified only from radius
# 10 (d244) and 23 (d236), and its signatures need interior faces, a margin of
# 4 and 6 below the ball radius; C5 also builds it one radius above that.
DEV_RADII = {
    "d333": 11,
    "d244": 15,
    "d236": 30,
    "d444": 11,
    "f21_333": 9,
}


class _DevCache:
    def __init__(self):
        self._cache = {}

    def __getitem__(self, name):
        if name not in self._cache:
            self._cache[name] = grow_to_radius(load_sample(name), DEV_RADII[name])
        return self._cache[name]


@pytest.fixture(scope="session")
def devs():
    return _DevCache()


@pytest.fixture(scope="session")
def dev333(devs):
    return devs["d333"]
