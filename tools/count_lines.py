"""Line counts of the sadiclab package, as CHANGES.md and ROADMAP.md quote them.

    python tools/count_lines.py [ROOT]

ROOT is a checkout (default: this one).  Prints two counts over
ROOT/src/sadiclab/*.py: every line, as `cat src/sadiclab/*.py | wc -l`
gives it, and the lines that hold code, that is, lines with a token other
than a comment, outside every docstring (the first statement of a module,
class or function when it is a string).  Standard library only.
"""

import ast
import glob
import io
import os
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(text):
    """(all lines, code lines) of one Python source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - _docstring_lines(ast.parse(text)))


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    total = code = 0
    for path in sorted(glob.glob(os.path.join(root, "src", "sadiclab", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            lines, code_lines = counts(fh.read())
        total += lines
        code += code_lines
    print(f"lines {total}")
    print(f"code lines {code}")


if __name__ == "__main__":
    main(sys.argv)
