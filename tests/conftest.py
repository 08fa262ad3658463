import sys
from pathlib import Path

import hypothesis

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
# the independent oracle the tests compare tlab against: perfbench/reference.py, which the benchmark checks with too
sys.path.insert(0, str(ROOT / "perfbench"))

hypothesis.settings.register_profile("suite", max_examples=100, deadline=None)
hypothesis.settings.load_profile("suite")
