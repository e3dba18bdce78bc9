"""Polynomials as sums of rank-one tensor terms.

A degree-d polynomial is evaluated as sum_t lam[t] * prod_d <P[d][t], x>.
The same sum is a dense coefficient tensor, the sum over t of lam[t] times
the outer product P[0][t] o P[1][t] o ... (the CP form); contracting that
tensor with x on every axis gives an independent way to evaluate the
polynomial. The demo builds the tensor with one `np.einsum` per degree.
"""

import numpy as np

from tensorpoly import LtrModel, predict


def dense_tensor(model):
    """The model's dense coefficient tensor: sum_t lam[t] * P[0][t] o ... o P[d-1][t]."""
    axes = "abcdefgh"[:model.n_d]
    terms = ",".join(f"t{a}" for a in axes)
    return np.einsum(f"t,{terms}->{axes}", model.lam, *model.P)


def contract(T, x):
    """T contracted with the same vector ``x`` on every axis."""
    axes = "abcdefgh"[:T.ndim]
    return float(np.einsum(f"{axes},{','.join(axes)}->", T, *[x] * T.ndim))


# x1 * x2 as a single rank-one term: <(1,0), x> * <(0,1), x>
model = LtrModel(
    P=[np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])],
    Q=np.ones((1, 1)),
    lam=[1.0],
)
# predict takes a matrix with one row per point and returns one row per point
print("f(2, 3) =", predict(model, np.array([[2.0, 3.0]]))[0, 0])

# the same polynomial as a dense 2x2 coefficient tensor
T = dense_tensor(model)
print("coefficient tensor:\n", T)
print("contracted at (2, 3):", contract(T, np.array([2.0, 3.0])))

# x1^2 - x2^2 factors as (x1 - x2)(x1 + x2)
model2 = LtrModel(
    P=[np.array([[1.0, -1.0]]), np.array([[1.0, 1.0]])],
    Q=np.ones((1, 1)),
    lam=[1.0],
)
print("\nx1^2 - x2^2 at (2, 1):", predict(model2, np.array([[2.0, 1.0]]))[0, 0])
print("its tensor:\n", dense_tensor(model2))

# both evaluation routes agree on random models
rng = np.random.default_rng(0)
model3 = LtrModel(
    P=[rng.standard_normal((3, 4)) for _ in range(3)],
    Q=np.ones((3, 1)),
    lam=rng.standard_normal(3),
)
T3 = dense_tensor(model3)
x = rng.standard_normal(4)
print("\nrandom degree-3 model, both routes:")
print("  decomposed:", predict(model3, x.reshape(1, -1))[0, 0])
print("  dense:     ", contract(T3, x))
