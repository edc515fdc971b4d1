"""``python -m repro.analysis`` — ``repro lint`` for environments where only
the package is on ``PYTHONPATH``: same parser, same flags, same exit codes
(``0`` clean, ``1`` findings, ``2`` bad invocation).
"""

from __future__ import annotations

import sys
from typing import List, Optional

from ..cli import main as cli_main


def main(argv: Optional[List[str]] = None) -> int:
    return cli_main(["lint", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
