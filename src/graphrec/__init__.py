"""graphrec: joint top-N item recommendation and missing-attribute inference
on attributed user-item bipartite graphs, with linear graph convolutions,
exact hand-written gradients, and a full evaluation harness."""

from .attributes import (AttributeSchema, AttributeTable, apply_update, encode,
                         init_missing, mask)
from .data import Dataset, load_checkpoint, load_dataset, load_interactions, \
    save_checkpoint, save_dataset, split
from .evaluate import (EvalReport, attribute_metrics, bpr_baseline,
                       evaluate_model, label_propagation, rank_and_score,
                       sparsity_groups)
from .graph import BipartiteGraph, build_graph, propagate
from .model import (ForwardTrace, ModelParams, forward, fuse, infer_attributes,
                    init_params, predict_rating)
from .train import (AdamState, TrainConfig, TrainResult, adam_step,
                    attribute_loss, bpr_loss, gradients, total_loss, train)
from .toy import make_toy_dataset, write_toy_files

__version__ = "0.1.0"
