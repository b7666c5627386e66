"""Job pools of the three benchmark workloads and the seeded job lists.

A job is a tuple of argv strings for ``hwkit.cli.main``.  An argument of the
form ``@name.ann`` names an annihilator file that the benchmark writes before
it runs the job; the runner replaces it with the file's path.  The job's id is
its argv joined by spaces with the ``@`` form kept, so the id does not depend
on where the files were written.

Every pass runs every job of the pool, in an order drawn from the seed, so
the work of a pass is the same for every seed and figures compare across
seeds.  Pools are kept small, so that one pass takes 4.5 to 6 s on a 2-core
x86 machine with Python 3.11 and a 30 s run holds five to seven passes
(see README.md).
"""

from __future__ import annotations

import random

# Annihilator inputs.  The ppd payload hashes the file text, so these bytes
# are part of every ppd job's expected envelope digest: never reformat them.
ANN_FILES = {
    "node.ann": (
        "# ordinary double point, untwisted\n"
        "f: x1*x2\n"
        "E: 1/2*x1*d1 + 1/2*x2*d2\n"
        "alpha: 0\n"
        "b: (s+1)^2\n"
        "pp: true\n"
        "x1*d1 - x2*d2\n"),
    "cusp.ann": (
        "# cuspidal cubic, untwisted\n"
        "f: x1^2 + x2^3\n"
        "E: 1/2*x1*d1 + 1/3*x2*d2\n"
        "alpha: 0\n"
        "b: (s+1)(s+5/6)(s+7/6)\n"
        "pp: true\n"
        "3*x2^2*d1 - 2*x1*d2\n"),
    "triple.ann": (
        "# ordinary triple point x1*x2*(x1+x2), untwisted\n"
        "f: x1^2*x2 + x1*x2^2\n"
        "E: 1/3*x1*d1 + 1/3*x2*d2\n"
        "alpha: 0\n"
        "b: (s+1)^2(s+2/3)(s+4/3)\n"
        "pp: true\n"
        "1/3*x1^2*d1 + 2/3*x1*x2*d1 - 2/3*x1*x2*d2 - 1/3*x2^2*d2\n"),
}

CUSP = ("x1^2+x2^3", "1/2,1/3")
NODE = ("x1^2+x2^2", "1/2,1/2")
TRIPLE = ("x1^2*x2+x1*x2^2", "1/3,1/3")


def _window(order, xdeg):
    return ("--order", str(order), "--xdeg", str(xdeg))


def _bfun_pool():
    jobs = []
    # closed-form b-function plus certification; (order, xdeg) per divisor
    # kept where one job stays under about 1 s
    for source, windows in (
            (("--exponents", "2"), [(2, 2), (5, 6)]),
            (("--exponents", "1,1"), [(3, 4)]),
            (("--exponents", "2,3"), [(2, 2), (4, 6)]),
            (("--exponents", "1,1,1"), [(2, 2), (3, 4)]),
            (("--poly", NODE[0], "--weights", NODE[1]), [(3, 4)]),
            (("--poly", CUSP[0], "--weights", CUSP[1]), [(3, 4)]),
            (("--poly", TRIPLE[0], "--weights", TRIPLE[1]), [(3, 4)])):
        for order, xdeg in windows:
            jobs.append(("bfun",) + source + ("--verify",)
                        + _window(order, xdeg))
    # user-supplied b-functions
    for poly, b, order, xdeg in (
            ("x1^2", "(s+1)(s+1/2)", 2, 2),
            ("x1*x2", "(s+1)^2", 3, 4),
            (CUSP[0], "(s+1)(s+5/6)(s+7/6)", 3, 6),
            # wrong b: the functional equation has no solution (exit 3)
            ("x1*x2", "(s+1)", 3, 4)):
        jobs.append(("verify", "bfun", "--poly", poly, "--b", b)
                    + _window(order, xdeg))
    # two doublings from an undersized window: (1,2) -> (2,4) -> (4,8)
    jobs.append(("verify", "bfun", "--poly", CUSP[0],
                 "--b", "(s+1)(s+5/6)(s+7/6)") + _window(1, 2)
                + ("--escalate", "2"))
    return jobs


def _ppd_pool():
    jobs = []
    for name, ls in (("node", (0, 1)), ("cusp", (0,)), ("triple", (0, 1))):
        for l in ls:
            jobs.append(("ppd", "--input", f"@{name}.ann", "--l", str(l),
                         "--weight-only"))
    # node Hodge steps: (0,0) at the default window (order 4, xdeg 10), (1,1)
    # at a smaller x-degree to keep the job near 1 s
    jobs.append(("ppd", "--input", "@node.ann", "--l", "0", "--k", "0"))
    jobs.append(("ppd", "--input", "@node.ann", "--l", "1", "--k", "1",
                 "--xdeg", "8"))
    jobs.append(("ppd", "--input", "@node.ann", "--l", "0", "--k", "0",
                 "--interval21", "--xdeg", "4"))
    return jobs


def _crosscheck_pool():
    jobs = []
    # (source args, alpha, valid l, largest k)
    cases = [
        (("--source", "snc", "--exponents", "1,1"), "1", (0, 1, 2), 2),
        (("--source", "snc", "--exponents", "2,3"), "1/2", (0, 1), 2),
        (("--source", "snc", "--exponents", "1,1,1"), "1", (0, 1, 2, 3), 2),
        (("--source", "snc", "--exponents", "2,1,3"), "1/2", (0, 1), 2),
    ]
    for (poly, weights), alpha, ls, kmax in (
            (CUSP, "5/6", (0, 1), 2),
            (NODE, "1", (1, 2), 2),
            (TRIPLE, "2/3", (0, 1), 2),
            (("x1^2+x2^5", "1/2,1/5"), "7/10", (0, 1), 2),
            (("x1^3+x2^4", "1/3,1/4"), "7/12", (0, 1), 2),
            (("x1^2+x2^2+x3^2", "1/2,1/2,1/2"), "1", (1, 2), 0)):
        cases.append((("--source", "whom", "--poly", poly,
                       "--weights", weights), alpha, ls, kmax))
    for src, alpha, ls, kmax in cases:
        for k in range(kmax + 1):
            for l in ls:
                jobs.append(("crosscheck",) + src
                            + ("--alpha", alpha, "--k", str(k), "--l", str(l)))
    # larger windows, up to (order, xdeg, dt) = (6, 20, 8)
    for src, alpha, k, l, bounds in (
            (cases[3][0], "1/2", 1, 1, (6, 20, 8)),
            (cases[7][0], "7/10", 2, 0, (6, 20, 8))):
        jobs.append(("crosscheck",) + src
                    + ("--alpha", alpha, "--k", str(k), "--l", str(l))
                    + ("--order", str(bounds[0]), "--xdeg", str(bounds[1]),
                       "--dtord", str(bounds[2])))
    # three doublings from the unit window, all inconclusive (exit 3)
    jobs.append(("crosscheck", "--source", "snc", "--exponents", "2,3",
                 "--alpha", "1", "--k", "2", "--l", "0", "--order", "1",
                 "--xdeg", "1", "--dtord", "1", "--escalate", "3"))
    return jobs


POOLS = {
    "bfun-certify": _bfun_pool(),
    "ppd-syzygy": _ppd_pool(),
    "crosscheck-oracle": _crosscheck_pool(),
}


def job_id(job) -> str:
    return " ".join(job)


def job_list(workload: str, seed: int, pass_no: int = 0) -> list:
    """The whole pool in the order the seed draws for one pass.  Each pass
    has its own order, so effects of one job on the next average out."""
    jobs = list(POOLS[workload])
    random.Random(f"{workload}:{seed}:{pass_no}").shuffle(jobs)
    return jobs

# Nominal time of one pass on the reference machine (README.md).  A run
# makes round(--seconds / PASS_SECONDS) passes, at least one.
PASS_SECONDS = {
    "bfun-certify": 4.5,
    "ppd-syzygy": 6.0,
    "crosscheck-oracle": 6.0,
}
