"""Train the wildfire rescue mission and print the learned joint behavior.

The scout must visit all three burning cells; the medic must reach both
victims but may enter the burning one only after the scout has been there,
while staying within communication range the whole time.

Run: python3 demos/wildfire_training.py         (about 10 seconds)
"""

import hyperq as hq

formula = hq.load_formula(hq.bundled("formulas/rescue.hltl"))
print("objective:", hq.unparse(formula))

env = hq.WildfireEnv(beta=8)
hyper = hq.Hyperparams(xi=5000, learning_rate=0.7, gamma=0.99,
                       epsilon_decay_episodes=800)
result = hq.train(env, formula, hyper, seed=1)

record = result.final_record
cfg = hyper.config()
print("terminal robustness:", record.terminal_rho,
      "->", hq.sat_verdict(record.terminal_rho, cfg).value)

names = env.cell_names
scout = [names[slot[:2]] for slot, _ in record.states]
medic = [names[slot[:2]] for _, slot in record.states]
print("scout path:", " ".join(scout))
print("medic path:", " ".join(medic))
print("robustness per step:", record.rhos)

# the recorded witness table answers: given the scout's trace so far,
# what does the medic do?
witness = result.witnesses[0]
print(f"witness entries recorded: {len(witness.entries)} "
      f"(one per prefix length of the dependency trace)")

print("episode consistent with witness:",
      hq.check_consistency(record.traces, result.witnesses))
