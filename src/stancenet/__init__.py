"""stancenet: knowledge-aware hierarchical attention networks for news
stance classification, built on a hand-rolled numpy autodiff core.

The package splits into six layers:

* ``autodiff``  - float64 tensors, a gradient tape, and the op set every
  layer is written in, plus a central finite-difference checker.
* ``textdata``  - corpus files, vocabulary, fixed-shape encoding (word
  id 0 is padding), fold construction, and synthetic corpus generators.
* ``kge``       - knowledge graph triple stores, RotatE/ModE/HAKE
  scoring and training, filtered link-prediction metrics, and
  vocabulary-aligned table export.
* ``model``     - knowledge injection, word/sentence/title attention
  levels, prediction, cross-entropy, and checkpoints.
* ``training``  - Adam, the plateau scheduler, the training loop,
  cross-validation, the alpha/beta sweep, and Welch's t-test.
* ``cli``       - the ``stancenet`` command-line pipeline.
"""

from .autodiff import (
    DegenerateInput,
    ShapeMismatch,
    Tape,
    Tensor,
    finite_diff_check,
)
from .kge import (
    KgeConfig,
    KgeModel,
    KnowledgeEmbeddingTable,
    TripleStore,
    evaluate_completion,
    export_aligned_table,
    load_triples,
    score_triple,
    train_kge,
)
from .model import (
    HyperParams,
    KnowledgeBundle,
    ModelParams,
    cross_entropy,
    init_params,
    inject_knowledge,
    load_checkpoint,
    make_planted_bundle,
    multi_head_attention,
    predict,
    save_checkpoint,
    sentence_level,
    title_level,
    word_level,
    zero_bundle,
)
from .textdata import (
    EncodedArticle,
    RawArticle,
    Vocabulary,
    build_vocab,
    encode_article,
    encode_corpus,
    gen_knowledge_corpus,
    gen_synthetic,
    load_corpus,
    make_folds,
    save_corpus,
    split_sentences,
)
from .training import (
    CvReport,
    EpochReport,
    TrainConfig,
    adam_step,
    cross_validate,
    evaluate_accuracy,
    plateau_step,
    sweep_alpha_beta,
    train,
    welch_t_test,
)

__version__ = "0.1.0"
