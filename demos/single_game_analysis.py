"""Walk through the full analysis of one attacker/defender game.

Builds the payoff matrix, lists every equilibrium with its Jacobian
eigenvalues and stability class, and prints the social-welfare column,
for a game whose only stable outcome is mutual engagement (E4).
"""

from cyberevo import (
    STRATEGY_PAIRS,
    GameParams,
    PopulationState,
    analyze_equilibria,
    build_payoff_matrix,
    integrate,
    interior_equilibrium,
    social_welfare,
    stable_set,
)


def main() -> None:
    params = GameParams(w=0.98, c_a=0.51, c_d=0.20, b_a=0.90, b_d=0.79, v=0.26)
    print("game:", params)
    print()

    print("payoff matrix (defender, attacker):")
    matrix = build_payoff_matrix(params)
    for pair in STRATEGY_PAIRS:
        d, a = matrix[pair]
        print(f"  {pair:24s} ({d: .4f}, {a: .4f})")
    print()

    print("equilibria:")
    for report in analyze_equilibria(params):
        eig = report.eigen
        print(
            f"  {report.kind.value} at ({report.location.beta:.4f}, "
            f"{report.location.alpha:.4f}): {report.classification.value:13s} "
            f"eigenvalues {eig.lambda1:.6f}, {eig.lambda2:.6f}"
        )
    print("  stable set:", sorted(kind.value for kind in stable_set(params)))
    interior = interior_equilibrium(params)
    print("  interior point:", interior if interior else "none in (0,1)^2")
    print()

    print("social welfare per pure strategy pair:")
    for pair in STRATEGY_PAIRS:
        print(f"  {pair:24s} {social_welfare(params, pair): .4f}")
    print()

    # The flow from an almost-passive population confirms the eigenvalue
    # verdict: it converges to full defence, full attack.
    trajectory = integrate(params, PopulationState(0.1, 0.1))
    final = trajectory.final_state
    print(
        f"trajectory from (0.1, 0.1): converged={trajectory.converged} "
        f"at ({final.beta:.6f}, {final.alpha:.6f})"
    )


if __name__ == "__main__":
    main()
