"""Make the benchmark's flat modules importable and the checkout's source used."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from common import use_checkout_source  # noqa: E402

use_checkout_source()
