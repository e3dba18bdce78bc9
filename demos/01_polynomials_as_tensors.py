"""Polynomials as sums of rank-one tensor terms.

A degree-d polynomial is evaluated as sum_t lam[t] * prod_d <P[d][t], x>.
Small models can be expanded into their dense coefficient tensor, which
gives an independent way to evaluate the same polynomial.
"""

import numpy as np

from tensorpoly import (
    LtrModel,
    materialize_tensor,
    predict,
    tensor_contract,
)

# x1 * x2 as a single rank-one term: <(1,0), x> * <(0,1), x>
model = LtrModel(
    P=[np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])],
    Q=np.ones((1, 1)),
    lam=[1.0],
)
# predict takes a matrix with one row per point and returns one row per point
print("f(2, 3) =", predict(model, np.array([[2.0, 3.0]]))[0, 0])

# the same polynomial as a dense 2x2 coefficient tensor
T = materialize_tensor(model)
print("coefficient tensor:\n", T)
print("contracted at (2, 3):", tensor_contract(T, [2.0, 3.0]))

# x1^2 - x2^2 factors as (x1 - x2)(x1 + x2)
model2 = LtrModel(
    P=[np.array([[1.0, -1.0]]), np.array([[1.0, 1.0]])],
    Q=np.ones((1, 1)),
    lam=[1.0],
)
print("\nx1^2 - x2^2 at (2, 1):", predict(model2, np.array([[2.0, 1.0]]))[0, 0])
print("its tensor:\n", materialize_tensor(model2))

# both evaluation routes agree on random models
rng = np.random.default_rng(0)
model3 = LtrModel(
    P=[rng.standard_normal((3, 4)) for _ in range(3)],
    Q=np.ones((3, 1)),
    lam=rng.standard_normal(3),
)
T3 = materialize_tensor(model3)
x = rng.standard_normal(4)
print("\nrandom degree-3 model, both routes:")
print("  decomposed:", predict(model3, x.reshape(1, -1))[0, 0])
print("  dense:     ", tensor_contract(T3, x))
