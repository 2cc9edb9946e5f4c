"""Standalone-compilable TeX tables for a family's closed forms.

The five tables (root set, delta-free roots, coefficient sets, even
components, even coefficient sets) are laid out for visual diffing: one
tabular per table, clause rows as "progression +- {pattern symbols}".
"""

from __future__ import annotations

from .families import AlgebraParams
from .progressions import ProgressionSet
from .rootsys import even_table
from .tables import (
    DOT_PATTERNS,
    DOT_PATTERNS_EVEN,
    EVEN_CLAUSES,
    ROOT_CLAUSES,
    S_CLOSED,
    S_EVEN_CLOSED,
    Pattern,
    Shape,
    resolve_progression,
)

_PATTERN_TEX = {
    Pattern.IMAGINARY: "",
    Pattern.PM_EPS: r"\varepsilon_i",
    Pattern.PM_2EPS: r"2\varepsilon_i",
    Pattern.EPS_PM_EPS: r"\varepsilon_i\pm\varepsilon_r\ (i\neq r)",
    Pattern.EPS_PM_EPS_FULL: r"\varepsilon_i\pm\varepsilon_r",
    Pattern.PM_DEL: r"\delta_j",
    Pattern.PM_2DEL: r"2\delta_j",
    Pattern.DEL_PM_DEL: r"\delta_j\pm\delta_s\ (j\neq s)",
    Pattern.DEL_PM_DEL_FULL: r"\delta_j\pm\delta_s",
    Pattern.EPS_PM_DEL: r"\varepsilon_i\pm\delta_j",
}

_SHAPE_TEX = {
    Shape.EPS_SINGLE: r"S_{\pm\varepsilon_i}",
    Shape.EPS_PAIR: r"S_{\pm\varepsilon_i\pm\varepsilon_r}",
    Shape.EPS_DOUBLE: r"S_{\pm2\varepsilon_i}",
    Shape.DEL_SINGLE: r"S_{\pm\delta_j}",
    Shape.DEL_PAIR: r"S_{\pm\delta_j\pm\delta_s}",
    Shape.DEL_DOUBLE: r"S_{\pm2\delta_j}",
    Shape.MIXED: r"S_{\pm\varepsilon_i\pm\delta_j}",
}


def _clause_tex(p: AlgebraParams, token: str, pats: tuple[Pattern, ...]) -> str:
    prog = resolve_progression(token, p).tex()
    symbols = [_PATTERN_TEX[pt] for pt in pats if pt is not Pattern.IMAGINARY]
    if not symbols:
        return prog
    return prog + r" \pm \{" + ",\\ ".join(symbols) + r"\}"


def _tabular(rows: list[tuple[str, ...]], header: tuple[str, ...]) -> str:
    """One tabular with a left-aligned column per header cell."""
    lines = [f"\\begin{{tabular}}{{|{'l|' * len(header)}}}", r"\hline",
             " & ".join(header) + r" \\", r"\hline"]
    lines += [" & ".join(row) + r" \\" for row in rows]
    lines += [r"\hline", r"\end{tabular}"]
    return "\n".join(lines)


def _document(title: str, *body: str) -> str:
    """A standalone document: one starred section with the body lines."""
    return "\n".join([r"\documentclass{article}", r"\usepackage{amssymb}",
                      r"\begin{document}", f"\\section*{{{title}}}", *body,
                      r"\end{document}"]) + "\n"


def _prog_tex(token: str | None, p: AlgebraParams) -> str:
    if token is None:
        return ProgressionSet.empty().tex()
    return f"${resolve_progression(token, p).tex()}$"


def tables_tex(p: AlgebraParams) -> str:
    """One standalone document with the family's five tables."""
    fam = p.family
    name = fam.tex_name()

    root_rows = [("$R$", f"${_clause_tex(p, tok, pats)}$")
                 for tok, pats in ROOT_CLAUSES[fam]]
    dot_row = ",\\ ".join(_PATTERN_TEX[pt] for pt in DOT_PATTERNS[fam])
    s_rows = [(f"${_SHAPE_TEX[shape]}$", _prog_tex(forms[fam], p))
              for shape, forms in S_CLOSED.items()]

    even_rows, dot0_rows = [], []
    for i in (1, 2):
        if not even_table(p, i):
            even_rows.append((f"$R_0({i})$", r"$\emptyset$"))
            dot0_rows.append((f"$\\dot R_0({i})$", r"$\emptyset$"))
            continue
        for tok, pats in EVEN_CLAUSES[fam][i]:
            even_rows.append((f"$R_0({i})$", f"${_clause_tex(p, tok, pats)}$"))
        syms = ",\\ ".join(_PATTERN_TEX[pt] for pt in DOT_PATTERNS_EVEN[fam][i])
        dot0_rows.append((f"$\\dot R_0({i})$", f"$\\pm\\{{{syms}\\}}$"))
    s0_rows = [(f"${_SHAPE_TEX[shape]}({i})$", _prog_tex(forms[fam], p))
               for (shape, i), forms in S_EVEN_CLOSED.items()]

    return _document(
        f"Root data for ${name}$, $k={p.k}$, $\\ell={p.l}$",
        r"\subsection*{Root set}",
        _tabular(root_rows, (f"${name}$", "$R$")),
        r"\subsection*{Delta-free roots}",
        _tabular([("$\\dot R$", f"$\\pm\\{{{dot_row}\\}}$")], (f"${name}$", "$\\dot R$")),
        r"\subsection*{Coefficient sets}",
        _tabular(s_rows, ("", f"${name}$")),
        r"\subsection*{Even components}",
        _tabular(even_rows, (f"${name}$", "$R_0(i)$")),
        _tabular(dot0_rows, (f"${name}$", "$\\dot R_0(i)$")),
        r"\subsection*{Even coefficient sets}",
        _tabular(s0_rows, ("", f"${name}$")),
    )


def roots_tex(p: AlgebraParams, rows: list[tuple[str, str, str, str, str, str]]) -> str:
    """Standalone document listing classified roots (pre-rendered row strings)."""
    return _document(f"Roots of ${p.family.tex_name()}$, $k={p.k}$, $\\ell={p.l}$",
                     _tabular(rows, ("eps", "del", "dc", "class", "parity", "component")))
