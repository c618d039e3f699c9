"""Tour of the differentiation engine: a small graph, its gradients
checked against finite differences, and the two optimizers on a toy
problem.
"""

import numpy as np

from mtvqa import autodiff as ad

rng = np.random.default_rng(0)

print("== build a graph: affine -> tanh -> masked cross entropy ==")
w = ad.parameter(rng.normal(size=(3, 4)), "w")
b = ad.parameter(np.zeros(4), "b")
x = np.asarray(rng.normal(size=(2, 3)))
targets = np.array([[1], [3]])  # (batch, heads): one head
mask = np.array([[True], [True]])


def loss_fn():
    hidden = ad.tanh(ad.affine(ad.constant(x), w, b))
    return ad.softmax_cross_entropy_masked(hidden, targets, mask)


loss = loss_fn()
loss.backward()
print(f"  loss {float(loss.data):.4f}")
print(f"  grad w row 0: {np.round(w.grad[0], 4)}")

print("\n== finite-difference check ==")
report = ad.check_gradients(loss_fn, [w, b])
print(f"  max relative error {report.max_rel_err:.2e} "
      f"(tolerance {report.tolerance}) -> {'ok' if report.passed else 'BROKEN'}")

print("\n== masked rows contribute exactly nothing ==")
ad.zero_grads([w, b])
all_masked = ad.softmax_cross_entropy_masked(
    ad.affine(ad.constant(x), w, b), np.array([[-1], [-1]]), np.array([[False], [False]]))
all_masked.backward()
print(f"  all-masked loss {float(all_masked.data)!r}, "
      f"max |grad w| {float(np.abs(w.grad).max())!r}")

print("\n== optimizers on a quadratic bowl ==")
for make in (lambda p: ad.Nadam([p], lr=0.05), lambda p: ad.SgdMomentum([p], lr=0.05)):
    p = ad.parameter(np.array([4.0, -3.0]), "p")
    opt = make(p)
    for step in range(60):
        p.grad[...] = 2.0 * p.data  # gradient of |p|^2, into its packed view
        opt.step()
    print(f"  {type(opt).__name__:12s} after 60 steps: {np.round(p.data, 5)}")
