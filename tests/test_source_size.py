"""The per-module size rule: every module of the package stays under 4,096
parser tokens, past which compiling a module costs markedly more memory."""

import tokenize
from pathlib import Path

import twistroots

TOKEN_LIMIT = 4096
SKIPPED = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL}
MODULES = sorted(Path(twistroots.__file__).parent.glob("*.py"))


def parser_tokens(path: Path) -> int:
    """Tokens the parser reads: ``tokenize`` output without the encoding
    marker, comments and non-logical line breaks."""
    with path.open("rb") as fh:
        return sum(1 for tok in tokenize.tokenize(fh.readline) if tok.type not in SKIPPED)


def test_every_module_stays_under_the_token_limit():
    sizes = {m.name: parser_tokens(m) for m in MODULES}
    assert {"cli.py", "rootsys.py", "shadow.py"} <= set(sizes)
    assert {name: n for name, n in sizes.items() if n >= TOKEN_LIMIT} == {}
