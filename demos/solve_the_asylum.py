"""Walk through the asylum puzzle: inconsistency, a short proof, and the core."""

from folkit.analysis import check_consistency, extract_mus, format_mus_report
from folkit.asylum import asylum_hypotheses, subset
from folkit.saturation import Limits, format_derivation
from folkit.tptp import print_tptp, Problem


def main():
    hyps = asylum_hypotheses()
    print("The twelve hypotheses, in TPTP form:")
    print(print_tptp(Problem(list(hyps.values()))))

    print("Checking all twelve for consistency...")
    verdict = check_consistency(list(hyps.values()))
    print(f"SZS status {verdict.status}")
    print(f"({verdict.stats.clauses_generated} clauses generated "
          f"in {verdict.stats.elapsed:.1f}s)\n")

    six = ["ax4", "ax5", "ax7", "ax8", "ax10", "ax12"]
    print(f"The same question for the reduced set {', '.join(six)}:")
    reduced = check_consistency(subset(six))
    print(f"SZS status {reduced.status}")
    print("The refutation, step by step:")
    print(format_derivation(reduced.witness))

    print("Extracting a minimal unsatisfiable core from all twelve.")
    print("Each deletion probe below found a model of the core minus that")
    print("member, so removing any single member restores consistency.")
    report = extract_mus(list(hyps.values()), limits=Limits(max_seconds=60.0))
    print(format_mus_report(report))
    print("Note that the core swaps ax8 for ax9: dropping ax8 leaves a set")
    print("that is still contradictory by way of ax9, so deletion in label")
    print("order settles on a different, equally minimal core.")


if __name__ == "__main__":
    main()
