import sys
from pathlib import Path

# the benchmark's package lives beside this directory, not under src/
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
