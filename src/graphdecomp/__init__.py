"""Decomposition-based graph algorithms with brute-force certification.

Cycle statistics run as dynamic programs over clique-width expressions;
eccentricities, hyperbolicity, and betweenness centrality run over split
trees, or over kernel trees read off the twin classes or the modular
tree; maximum matching runs over modular decomposition with witness
subgraphs and over the few-P4 quotient classes.
Every fast path has an independent oracle next to it.
"""

from .blossom import (Matching, certifies_maximum, maximum_matching,
                      tutte_berge_set)
from .classify import QuotientClass, classify_prime_graph, effective_q
from .distances import UNREACHABLE, Distance, Half
from .ecc import (eccentricities_modular, eccentricities_qq3,
                  eccentricities_split)
from .bc import betweenness_modular, betweenness_nd, betweenness_split
from .families import (FamilySpec, GeneratedGraph, gen_family,
                       random_degenerate_split_tree, random_instance)
from .graph import (DisconnectedGraphError, Graph, GraphError, bfs_distances,
                    build_graph, read_edgelist, substitute, write_edgelist)
from .hyp import hyperbolicity_nd, hyperbolicity_qq3, hyperbolicity_split
from .kexpr import (KExpression, LabeledGraph, RedundantExpressionError,
                    dp_girth, dp_triangle_count, eval_kexpr,
                    kexpr_from_modular, kexpr_vertex_order, max_label,
                    parse_kexpr, random_irredundant_kexpr, serialize_kexpr,
                    verify_irredundant)
from .matching import (StructuralError, WitnessGraph, build_witness,
                       match_disc, match_spider, max_matching_modular,
                       max_matching_prime_ptree, max_matching_qq3,
                       pending_module_rule, reduce_module_edges,
                       split_and_match)
from .modular import (MDNode, NDPartition, is_module, modular_decomposition,
                      modular_width, nd_partition, quotient_graph)
from .oracles import (oracle_betweenness, oracle_cycle_stats,
                      oracle_diameter, oracle_eccentricities,
                      oracle_hyperbolicity, oracle_maximum_matching)
from .splitdec import (SplitComponent, SplitTree, split_decomposition,
                       split_tree_from_modular, split_tree_from_nd,
                       split_width)

__version__ = "0.1.0"
