# Walk through the missing-attribute machinery step by step: masking,
# mean-filling, model-based inference, and the two baselines it must beat
# (majority class and label propagation).

import numpy as np

from graphrec import TrainConfig, make_toy_dataset, train
from graphrec.attributes import init_missing
from graphrec.evaluate import (attribute_metrics, label_propagation_metrics,
                               majority_class_accuracy)
from graphrec.model import forward, infer_attributes

dataset = make_toy_dataset(seed=0, alpha=0.5)
table = dataset.user_attrs

# Masking removed half the (user, field) pairs; the held-out truth stays in
# table.ground_truth so we can score predictions later.
print(f"fields: {[f.name for f in table.schema]}")
print(f"masked pairs: {len(table.masked)} of {table.values.shape[0]} users "
      f"x {len(table.schema.fields)} fields")

# Before training, missing entries are filled with per-dimension observed
# means — the same values a cold model would predict.
X0 = init_missing(table)
observed = table.indicator == 1.0
print(f"mean-fill example row: {np.round(X0[table.masked[0][0]], 3)}")
assert np.array_equal(X0[observed], table.values[observed])

# Train with the attribute loss switched on. Between epochs the model writes
# its own predictions back into the missing slots, so the graph convolution
# propagates progressively better attribute estimates.
config = TrainConfig(d=8, d_a=4, K=1, gamma=0.2, batch_size=512,
                     max_epochs=30, early_stop_patience=10**6)
result = train(dataset, config)

trace = forward(result.params, dataset.graph_train, result.X, result.Y)
predicted = infer_attributes(trace, result.params, table)
model_scores = attribute_metrics(predicted, table)

# Baseline 1: always predict the most frequent observed class.
majority = majority_class_accuracy(table, "group")

# Baseline 2: propagate observed labels over the interaction graph.
lp_scores = label_propagation_metrics(dataset.graph_train, table)

print("\nfield        model    label-prop   majority")
for f in table.schema:
    m = model_scores[f.name]["value"]
    lp = lp_scores[f.name]["value"]
    base = f"{majority:.3f}" if f.name == "group" else "   -"
    print(f"{f.name:<12} {m:.3f}    {lp:.3f}        {base}")
