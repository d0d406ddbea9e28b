import sys
from pathlib import Path

# the package is tested from its source tree, as the benchmark runs it
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
