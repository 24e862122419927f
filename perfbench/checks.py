"""Correctness checks on the program's responses.

Each check compares a response against properties and independent totals
(the session's own byte total, the photo count the client acked, the score
recomputed from the objective's formula), never against a stored copy of
earlier output. A violated property raises CheckError.
"""


class CheckError(Exception):
    pass


def close(a, b, rel=1e-9):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def require(condition, message):
    if not condition:
        raise CheckError(message)


def check_plan(plan, num_photos, total_bytes, budget, coverage=True):
    """The invariants every plan response must satisfy.

    `coverage=False` skips the coverage-row totals, for incremental plans,
    which carry no coverage rows; `total_bytes=None` skips the byte total,
    for responses that do not state it.
    """
    retained, archived = plan["retained"], plan["archived"]
    require(len(set(retained)) == len(retained), "a retained photo repeats")
    require(len(set(archived)) == len(archived), "an archived photo repeats")
    require(not set(retained) & set(archived),
            "a photo is both retained and archived")
    require(set(retained) | set(archived) == set(range(num_photos)),
            "retained and archived do not cover [0, num_photos)")
    require(total_bytes is None
            or plan["retained_bytes"] + plan["archived_bytes"] == total_bytes,
            "retained_bytes + archived_bytes != the session's total_bytes")
    require(plan["retained_bytes"] <= budget, "retained set over budget")
    score, max_score = plan["score"], plan["max_score"]
    require(score <= plan["online_bound"]["upper_bound"] * (1 + 1e-9),
            "score above the online upper bound")
    require(close(plan["score_fraction"], score / max_score),
            "score_fraction != score / max_score")
    if coverage:
        check_coverage(plan["coverage"], score, max_score)


def check_coverage(rows, score, max_score):
    """Σ weight·coverage is the score; Σ weight is G(P) = max_score."""
    require(len(rows) > 0, "no coverage rows")
    require(close(sum(r["weight"] * r["coverage"] for r in rows), score),
            "sum of weight*coverage != score")
    require(close(sum(r["weight"] for r in rows), max_score),
            "sum of subset weights != max_score")


def check_direct_score(plan, direct):
    """`direct` is G(retained) and G(P) from the formula (perfbench_probe)."""
    require(close(plan["score"], direct["score"]),
            f"score {plan['score']} != G(retained) {direct['score']}")
    require(close(plan["max_score"], direct["max_score"]),
            f"max_score {plan['max_score']} != G(P) {direct['max_score']}")


def check_same_retained(plan, reference, what):
    require(plan["retained"] == reference["retained"],
            f"{what}: retained list differs")


def check_recovered(flush, expected_photos):
    """After SIGKILL and recovery every acked photo is there exactly once."""
    require(flush["pending_photos"] == 0, "photos still pending after flush")
    require(flush["num_photos"] == expected_photos,
            f"recovered {flush['num_photos']} photos, expected base + acked"
            f" = {expected_photos}")
