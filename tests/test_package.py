"""The package's public names are exactly its modules' public names."""

import collatzbin
from collatzbin import analysis, exact, harness, maps, raster, verify


def test_package_exports_every_module_export():
    from collatzbin import orbit_extents, write_csv

    assert orbit_extents is maps.orbit_extents
    assert write_csv is harness.write_csv
    modules = (analysis, exact, harness, maps, raster, verify)
    assert set(collatzbin.__all__) == {name for m in modules for name in m.__all__}
    assert all(hasattr(collatzbin, name) for name in collatzbin.__all__)
