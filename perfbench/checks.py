"""Answer checks, run outside the timed region.

Every check either returns the largest absolute parameter error it measured
or raises :class:`WrongAnswer`.  Recovered parameters are compared with the
generating model after matching classes by nearest rows, which needs no
permutation search and also rejects an answer whose parts are permuted
inconsistently.  A recovered HMM is judged by the window law it implies:
its parameters can sit 1e-4 from the model's while reproducing that law to
1e-14, so their error is reported but not gated.
"""

from __future__ import annotations

import numpy as np

from latentid import hmm

#: largest relative error of a recovered HMM's window law, and largest
#: deviation of its pi from the stationary law of its A.  Correct answers
#: measured below 1e-10 on both; a perturbed parameter misses by 1e-4 or more.
LAW_TOL = 1e-6
#: largest absolute parameter error accepted.  Correct answers measured at
#: most 5e-7 (HMM round trips at r=6..7, the nonparametric frontier) over
#: some 2,500 checked ops, so 1e-5 leaves a wide margin, while a wrong
#: labeling or a perturbed parameter misses by 1e-3 or more.
PARAM_TOL = 1e-5


class WrongAnswer(Exception):
    """An op returned an answer that does not match the expected one."""


def match_rows(recovered: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """``perm`` with ``recovered[perm]`` row-aligned to ``reference``.

    Rows hold all parameters of one class.  Each reference row takes its
    nearest recovered row in max-abs distance; a non-bijective matching is a
    wrong answer.
    """
    recovered = np.asarray(recovered, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if recovered.shape != reference.shape:
        raise WrongAnswer(f"shape {recovered.shape} != expected {reference.shape}")
    dist = np.abs(reference[:, None, :] - recovered[None, :, :]).max(axis=2)
    perm = dist.argmin(axis=1)
    if np.unique(perm).size != perm.size:
        raise WrongAnswer("recovered classes do not match the model one to one")
    return perm


def within_tol(error: float, what: str) -> float:
    if not error <= PARAM_TOL:
        raise WrongAnswer(f"{what}: error {error:.3g} > {PARAM_TOL}")
    return float(error)


def check_permutation(perm, r: int) -> np.ndarray:
    perm = np.asarray(perm)
    if sorted(perm.tolist()) != list(range(r)):
        raise WrongAnswer(f"{perm.tolist()} is not a permutation of {r} classes")
    return perm


def mixture_error(pi_hat, factors_hat, pi, factors, perm) -> float:
    """Max-abs difference of ``(pi, factors)`` after reordering by ``perm``."""
    perm = check_permutation(perm, len(pi))
    err = np.abs(np.asarray(pi_hat)[perm] - pi).max()
    for F_hat, F in zip(factors_hat, factors, strict=True):
        F_hat = np.asarray(F_hat)
        if F_hat.shape != F.shape:
            raise WrongAnswer(f"factor shape {F_hat.shape} != {F.shape}")
        err = max(err, np.abs(F_hat[perm] - F).max())
    return float(err)


def hmm_error(A_hat, B_hat, pi_hat, A, B, pi, perm) -> float:
    """Max-abs difference of an HMM after relabeling states by ``perm``."""
    perm = check_permutation(perm, len(pi))
    A_hat, B_hat, pi_hat = (np.asarray(x, dtype=float) for x in (A_hat, B_hat, pi_hat))
    if A_hat.shape != A.shape or B_hat.shape != B.shape or pi_hat.shape != pi.shape:
        raise WrongAnswer("recovered HMM shapes differ from the model")
    return float(
        max(
            np.abs(pi_hat[perm] - pi).max(),
            np.abs(A_hat[np.ix_(perm, perm)] - A).max(),
            np.abs(B_hat[perm] - B).max(),
        )
    )


def check_hmm(answer, model, perm=None) -> float:
    """Recovered ``(A, B, pi)`` must reproduce the model's window law.

    Returns the parameter error under ``perm``, or under a matching of states
    on (pi, B) rows when none is given; 0.0 when no one-to-one matching exists.
    """
    A_hat, B_hat, pi_hat = (np.asarray(x, dtype=float) for x in answer)
    k = hmm.min_window(model.r, model.kappa)
    T = hmm.window_tensor(model, k)
    recovered = hmm.HiddenMarkovModel(A=A_hat, B=B_hat)  # validates A and B
    law_error = np.abs(hmm.window_tensor(recovered, k) - T).max() / np.abs(T).max()
    if not law_error <= LAW_TOL:
        raise WrongAnswer(f"hmm window law off by {law_error:.3g} (relative) > {LAW_TOL}")
    pi_error = np.abs(pi_hat - recovered.pi).max() if pi_hat.shape == recovered.pi.shape else np.inf
    if not pi_error <= LAW_TOL:
        raise WrongAnswer(f"hmm pi is off the stationary law of A by {pi_error:.3g}")
    if perm is None:
        try:
            perm = match_rows(
                np.column_stack([pi_hat, B_hat]), np.column_stack([model.pi, model.B])
            )
        except WrongAnswer:
            return 0.0
    return hmm_error(A_hat, B_hat, pi_hat, model.A, model.B, model.pi, perm)


def check_mixture_tables(answer, pi, tables) -> float:
    """Recovered ``(pi, tables)`` against expected weights and CDF tables."""
    pi_hat, tables_hat = answer
    if len(tables_hat) != len(tables):
        raise WrongAnswer(f"{len(tables_hat)} tables, expected {len(tables)}")
    perm = match_rows(
        np.column_stack([pi_hat, *tables_hat]), np.column_stack([pi, *tables])
    )
    return within_tol(mixture_error(pi_hat, tables_hat, pi, tables, perm), "mixture")


def numeric_rank(M) -> int:
    """Rank with numpy's default cutoff, independent of the library's rule."""
    return int(np.linalg.matrix_rank(np.asarray(M, dtype=float)))
