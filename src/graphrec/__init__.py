"""graphrec: joint top-N item recommendation and missing-attribute inference
on attributed user-item bipartite graphs, with linear graph convolutions,
exact hand-written gradients, and a full evaluation harness."""

from .attributes import (AttributeSchema, AttributeTable, apply_update, encode,
                         init_missing, mask)
from .data import Dataset, TrainState, load_checkpoint, load_dataset, load_interactions, \
    save_checkpoint, save_dataset, split
from .evaluate import (EvalReport, Ranking, attribute_metrics, evaluate_model,
                       label_propagation, rank_and_score, sparsity_groups)
from .graph import BipartiteGraph, build_graph, propagate
from .model import ForwardTrace, ModelParams, forward, infer_attributes, init_params
from .train import (TrainConfig, TrainResult, adam_step, bpr_baseline, bpr_loss,
                    gradients, train)
from .toy import make_toy_dataset, write_toy_files

__version__ = "0.1.0"
