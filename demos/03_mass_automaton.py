"""Build the mass automaton and walk a recognised word through it.

Vertices carry pairs of canonical stable objects, arrows carry 2x2
matrices of mass polynomials.  A braid word rewritten into normal form
is recognised by following arrows; the ordered product of the matrices
along a closed path controls the braid's mass growth.
"""

from braiddyn import build, parse_word, path_matrix, recognize, to_normal_form, zero_pattern
from braiddyn.fusion import eval_mass

n = 5
auto = build(n)
print(f"automaton for n={n}: {len(auto.vertices)} vertices, {len(auto.arrows)} arrows")
for vid in auto.vertex_order():
    vertex = auto.vertices[vid]
    incoming = sum(
        1 for a in auto.arrows if a.target == vid and not isinstance(a.label, int)
    )
    basis = ", ".join(f"{b.family}[{b.index}]" for b in vertex.basis)
    print(f"  {vid[0]}{vid[1]}: basis ({basis}), {incoming} incoming twist arrows")
print()

word = parse_word("s1 s1 s2 s2", n)
nf = to_normal_form(word)
print("word s1 s1 s2 s2 in normal form:", nf.text())
print("recognised by a closed path?", recognize(auto, nf, require_closed=True).closed)
print()

# its conjugate (one shortening round) is closed
conj = parse_word("s1^-1 s1 s1 s2 s2 s1", n)
nf2 = to_normal_form(conj)
print("conjugate normal form:", nf2.text())
witness = recognize(auto, nf2, require_closed=True)
print("conjugate recognised by a closed path?", witness.closed)
print("closed path:")
for arrow in witness.arrows:
    print(f"  {arrow.source[0]}{arrow.source[1]} --{arrow.label_text()}--> {arrow.target[0]}{arrow.target[1]}")

matrix = path_matrix(auto, witness)
print("path matrix at t=0:")
for r in range(2):
    print("  ", [round(eval_mass(matrix[r][c], 0.0), 6) for c in range(2)])
print("zero pattern:", zero_pattern(matrix))
