"""Reading back the equation strings that ``sparsedyn.model.equations`` writes."""

from sparsedyn.errors import SpecError


def parse_equation(text: str) -> tuple[str, dict[str, float]]:
    """Inverse of ``equations``: target name and name -> coefficient map."""
    target, _, rhs = text.partition(" = ")
    if not rhs:
        raise SpecError(f"not an equation string: {text!r}")
    rhs = rhs.strip()
    if rhs == "0":
        return target, {}
    terms = {}
    for chunk in rhs.split(" + "):
        coef_str, _, name = chunk.partition(" ")
        terms[name] = float(coef_str)
    return target, terms
