"""Domino matching: exhaustive oracle versus learned search.

Each agent assembles a sequence of dominoes; a sequence is a match when the
concatenated top and bottom words are equal at termination. The exhaustive
oracle certifies what the learner should find.

Run: python3 demos/domino_search.py             (about 5 seconds)
"""

import hyperq as hq
from hyperq.worlds import concat_words, load_domino_file, pcp_oracle

dominoes = load_domino_file(hq.bundled("dominoes/k3_solvable.dom"))
for i, (top, bot) in enumerate(dominoes.dominoes, start=1):
    print(f"  dom_{i}: {top} / {bot}")

solution = pcp_oracle(dominoes, max_len=5)
top, bot = concat_words(dominoes, solution)
print("oracle solution:", solution, "->", top, "=", bot)

formula = hq.load_formula(hq.bundled("formulas/pcp_ab.hltl"))
env = hq.PcpEnv(dominoes, beta=10)
hyper = hq.Hyperparams(xi=1000, learning_rate=0.7, epsilon_decay_episodes=600,
                       epsilon_end=0.2)
result = hq.train(env, formula, hyper, seed=2)

matches = result.metrics.rows[-1]["tot_done"]
print(f"training matches found: {matches} across {hyper.xi} episodes")

seq, done = result.final_record.states[-1][1]
if done and seq:
    top, bot = concat_words(dominoes, seq)
    print("greedy sequence:", list(seq), "->", top, "/", bot,
          "match" if top == bot else "no match")
else:
    print("greedy sequence did not terminate:", list(seq))

unsolvable = load_domino_file(hq.bundled("dominoes/k3_unsolvable.dom"))
print("unsolvable set within bound 8:", pcp_oracle(unsolvable, max_len=8))
