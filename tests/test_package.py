"""The package namespace: every public name is bound by `import qframes`."""

import qframes
import qframes.checks
import qframes.frame_ops


def test_every_public_name_is_served():
    namespace = {}
    exec("from qframes import *", namespace)
    for name in qframes.__all__:
        assert namespace[name] is getattr(qframes, name)
    assert set(qframes.__all__) <= set(dir(qframes))
    assert qframes.run_checks is qframes.checks.run_checks
    assert qframes.intertwiner is qframes.frame_ops.intertwiner
