#!/usr/bin/env python3
"""Probe approximate measurement correction on near-reversible instruments.

Generates weakly measuring random instruments across a range of disturbance
values eps, recovers each with the per-outcome transpose channel, and tabulates
the corrected entanglement fidelity against the 1-2*sqrt(eps) and
1-4*sqrt(eps) thresholds, plus the Fano-type converse bound.
"""

import argparse

import numpy as np

import infobalance as ib


def weak_instrument(rng, d, n_out, eta):
    q = rng.dirichlet(np.ones(n_out))
    hs = []
    for _ in range(n_out):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = (g + g.conj().T) / 2.0
        hs.append(h / np.max(np.abs(np.linalg.eigvalsh(h))))
    avg = sum(qi * h for qi, h in zip(q, hs))
    tilted = [h - avg for h in hs]
    scale = max(np.max(np.abs(np.linalg.eigvalsh(t))) for t in tilted)
    eta = min(eta, 0.5 / max(scale, 1e-12))
    unitaries = [ib.haar_isometry(rng, d, d) for _ in range(n_out)]
    return ib.near_trivial(q, tilted, unitaries, eta)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=40, help="instruments to generate")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dim", type=int, default=2)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'eps':>12} {'fidelity':>12} {'1-2sqrt':>12} {'1-4sqrt':>12} "
          f"{'fano_bound':>12} ok")
    met2 = met4 = 0
    for k in range(args.n):
        eta = 10 ** rng.uniform(-2.5, -0.5)
        instr = weak_instrument(rng, args.dim, int(rng.integers(2, 4)), eta)
        g = rng.standard_normal((args.dim, args.dim)) + 1j * rng.standard_normal(
            (args.dim, args.dim)
        )
        m = g @ g.conj().T
        rho = ib.LabeledState(
            [ib.Subsystem("Q", args.dim)], m / np.trace(m).real
        )
        eps = ib.disturbance(instr, rho)
        family = ib.petz_family(instr, rho)
        fano = ib.fano_bound_check(instr, rho, family, delta=eps)
        fid = fano.fidelity
        b2 = 1.0 - 2.0 * np.sqrt(max(eps, 0.0))
        b4 = 1.0 - 4.0 * np.sqrt(max(eps, 0.0))
        met2 += fid >= b2
        met4 += fid >= b4
        print(f"{eps:12.3e} {fid:12.9f} {b2:12.6f} {b4:12.6f} "
              f"{fano.bound:12.6f} {'yes' if fano.holds else 'NO'}")
    print(f"\nmet 1-2*sqrt(eps): {met2}/{args.n}   met 1-4*sqrt(eps): {met4}/{args.n}")


if __name__ == "__main__":
    main()
