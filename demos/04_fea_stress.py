"""Plane-stress FEA on the tape: solve a cantilever, read compliance, the
energy identity, and the aggregated von Mises stress."""

import numpy as np

from topofield import MaterialModel, StressAggregate, Tape, assemble_and_solve, build_mesh, compliance
from topofield.fea import centroid_stress, p_norm_stress

mesh = build_mesh(12, 6)
mat = MaterialModel()  # E0=1, Emin=1e-9, nu=0.3, penal=3
left = np.array([mesh.node_id(0, i) for i in range(mesh.nely + 1)])
fixed = np.concatenate([2 * left, 2 * left + 1])
f = np.zeros(mesh.n_dofs)
f[2 * mesh.node_id(mesh.nelx, 0) + 1] = -1.0

tape = Tape()
rho = tape.leaf(np.full(mesh.n_elems, 0.5))
u, system = assemble_and_solve(rho, mesh, mat, fixed, f)
c = compliance(u, f)
print(f"compliance at uniform density 0.5: {float(c.value):.4f}")

ufree = u.value[system.free_dofs]
print(f"energy identity |f.u - u.K.u| / C = "
      f"{abs(float(c.value) - ufree @ (system.K @ ufree)) / float(c.value):.2e}")

stress = centroid_stress(u, rho, mesh, mat)
vm = stress.value
print(f"von Mises range: [{vm.min():.4f}, {vm.max():.4f}]")

agg = StressAggregate(sigma_allow=float(vm.max()), exponent=8.0)
pn = p_norm_stress(stress, agg)
print(f"aggregated constraint value with sigma_allow = max(vm): {float(pn.value):+.4f}")
print("(negative: the p-norm mean sits below the local maximum)")

grads = tape.backward(pn)
g = grads.of(rho)
print(f"d(aggregate)/d(density): mean {g.mean():+.2e}, "
      f"most stress-relieving element {int(np.argmin(g))}")
