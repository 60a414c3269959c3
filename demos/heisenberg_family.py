"""The two-parameter central derivation family on the integer Heisenberg
group, and why it is not quasi-inner.

The group is infinite, so everything runs inside a word-metric ball.
D is the central derivation d(g) = phi(g) sigma(g) z^r of the additive
character phi(a, b, c) = mu a + nu b. Like any derivation it is pinned
down by its values on the generators x = (1,0,0) and y = (0,1,0).
"""

from twisted_derivations import (
    HeisenbergParams,
    builtin_group,
    check_leibniz,
    heisenberg_central_family,
    is_quasi_inner,
    leibniz_pairs,
)

G = builtin_group("heisenberg_Z")
params = HeisenbergParams(sigma_a=2, sigma_b=3, sigma_c=0, tau_c=1)
mu, nu, r = 1, 0, 4

D = heisenberg_central_family(params, mu, nu, r)
x = G.element((1, 0, 0))
y = G.element((0, 1, 0))
print(f"D(x) = {D.value(x)}")
print(f"D(y) = {D.value(y)}")
print(f"D((1,0,5)) = {D.value(G.element((1, 0, 5)))}")

# Leibniz holds on every pair the truncation can see
pairs = leibniz_pairs(D, 3)  # a closed form: every pair of the ball,
report = check_leibniz(D, pairs)  # proved from the pairs (g, s), g in B(5)
print(f"leibniz on {len(pairs)} ball-3 pairs: {report['ok']}")
assert report["ok"]

# but no finitely supported potential produces D: the character it
# induces refuses to vanish on some loop of the groupoid
verdict = is_quasi_inner(D, scope=G.ball(3))
print(f"quasi-inner: {verdict['quasi_inner']}")
assert not verdict["quasi_inner"]
h, g = verdict["loop_witness"]
print(f"loop witness: h = {G.label(h)}, g = {G.label(g)}")
print(f"character value on that loop: {verdict['value']}")
