"""Byte parity of the CLI's outputs with digests captured at a known-good commit.

The corpus runs ``cv --mode nested``, ``cv --mode flat`` and ``fit`` then
``predict`` for every splitter (potr, srtr, lsoo, exhaustive) and both built-in
classifiers (``linear``, ``kernel-ridge --kernels 16``) on two datasets, at
3 iterations and 3 x 3 folds, and hashes ``report.json``, ``folds.csv``,
``predictions.csv`` and stdout.  No fold scores 1.0, so a change in which
tree is selected changes a digest.

``model.json`` is not hashed, as its weight bits depend on the BLAS.  Each
fitted bundle is decoded instead: its tree text must match exactly, and per
node a weighted checksum of the weights, intercepts, ``feature_mean`` and
``feature_scale`` must match within ``MODEL_TOLERANCE``, so a change that
moves the fitted numbers but no prediction is still seen.

After a deliberate change to the outputs, print the new digests and model
checksums with ``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from hiertsc import (
    LcpnModel,
    TimeSeriesDataset,
    cli,
    collinear_superclusters,
    save_dataset,
    tree_to_text,
)

SPLITTERS = ("potr", "srtr", "lsoo", "exhaustive")
CLASSIFIERS = {
    "linear": ("--classifier", "linear"),
    "kernel16": ("--classifier", "kernel-ridge", "--kernels", "16"),
}
COMMON = ("--iters", "3", "--inner-folds", "3", "--seed", "0")

#: captured at commit 05c1744, before folds and fits became row-index runs;
#: the ``exhaustive`` entries at commit afc8e29, before split scoring prepared
#: each class set's rows once (``exhaustive`` scores every bipartition of a
#: class set on one prepared row set, so it leans hardest on that reuse)
GOLDEN = {
    "collinear-exhaustive-kernel16-fit/stdout": "b3fe6be284f8bd70a106da6e57daf1fb6be2a2a99f3d9e994d0481a8ea1cfc78",
    "collinear-exhaustive-kernel16-flat/folds.csv": "d3887f1abc15fb1637500052be14ac93058ce9c9078b14265a0d66218058bd1d",
    "collinear-exhaustive-kernel16-flat/report.json": "ecde61d28b339578c289e31c051ce4e11356e5c4b223362d123d40200ea34488",
    "collinear-exhaustive-kernel16-flat/stdout": "bc89f64525dd1118d75b716fb95d7f70a00e23e76e1e0c44a96811d8a445ae89",
    "collinear-exhaustive-kernel16-nested/folds.csv": "232d9b537b20bbfda2a1896d39faacdd6c7eeab3c4182b6f6bc85451b63bfa85",
    "collinear-exhaustive-kernel16-nested/report.json": "c1ada1bb916d542e62ef93da744a17ca03dbf9439d3010ff979c7ee684f5b8dc",
    "collinear-exhaustive-kernel16-nested/stdout": "908193dbcd51bd45df4eecbe2ae92958cd4c36a9f59283156ebdd5ef46e22bcd",
    "collinear-exhaustive-kernel16-predict/predictions.csv": "8fa551b2457fd811da393312fa1850d41a6fcac3382c4194ca80db2bb9bc65f0",
    "collinear-exhaustive-kernel16-predict/stdout": "813710593c1a8d4b6ba211398da7195c9723560e5a20b468525cd59e52b67bbd",
    "collinear-exhaustive-linear-fit/stdout": "a83b6070659a8ac26bd50ec3a6b943bd4addbffcfd785cd591110273109e803b",
    "collinear-exhaustive-linear-flat/folds.csv": "aff6e39889567f94504c6d51fe5ceb348dbd13e9d35de072fd978cd8c1e0fa08",
    "collinear-exhaustive-linear-flat/report.json": "026b59e33d8ddf1583c62306dff4f240a802dcc8549d43292146f8422c3afd38",
    "collinear-exhaustive-linear-flat/stdout": "8f396176b4072bd97d0a9b4f6ee2c3e0ecc2638653497500f4699fbb0a3cce8b",
    "collinear-exhaustive-linear-nested/folds.csv": "9398344e1693b590b4637716d2227046495b13b9ea1785c3a2e2cae19e8583f5",
    "collinear-exhaustive-linear-nested/report.json": "e20b0b80e6d200052257925443d9590d2080de12c729c7bf8b75d4b4c5020b9a",
    "collinear-exhaustive-linear-nested/stdout": "6b6cf5af41b895930d10557c852e273f10c10664083ccad5f822dc6b92756d2e",
    "collinear-exhaustive-linear-predict/predictions.csv": "ef2d53ba9715584bda17989149dfc989ee658f76e617a10408238044b6da9bf5",
    "collinear-exhaustive-linear-predict/stdout": "acbeeb0af86502ab7aabff1c8d65cf7da81767ab4a3295405e3f1b9e166aae69",
    "collinear-lsoo-kernel16-fit/stdout": "7b9d417f3ec44f6cfe9747c0429cc108957b508e6ff51b2e3040ff1bd4cf743e",
    "collinear-lsoo-kernel16-flat/folds.csv": "33561184056051b5f7295c510ce57e980a0c127e6d0ac047868d59da5ade835e",
    "collinear-lsoo-kernel16-flat/report.json": "43dd78ac19e72a1164251566ae20e848b8a69928a7142325d55fec8acb647f45",
    "collinear-lsoo-kernel16-flat/stdout": "1fd2ca92c7932784f4dc99ae8632987d011e882dfb73e22b87c26d60f650080e",
    "collinear-lsoo-kernel16-nested/folds.csv": "76bea2ddf72c0757f51e02c52e10c96ae525f5630331455dba32d93a54924222",
    "collinear-lsoo-kernel16-nested/report.json": "78ced060ca9a7e8366bd6c53c702d4f38cc4e8a8dcfe3c23f291852993b1e454",
    "collinear-lsoo-kernel16-nested/stdout": "a4cc53faca2c88197a2a9bb2a9e4830dfda1327f82e98113bf95505dce704316",
    "collinear-lsoo-kernel16-predict/predictions.csv": "175231de7f93838d0817381954fbb3107830a99eb7482ab783dff0b84e3d6ff8",
    "collinear-lsoo-kernel16-predict/stdout": "56b65deac7ae6ae5f9529a45674e2b89b2a21657fffd8a054fb926ff0e8931ae",
    "collinear-lsoo-linear-fit/stdout": "f4c331f90e6a3e279c0128ac7c64a2c7b0a0f67a906ce7281e9693c7b77e276c",
    "collinear-lsoo-linear-flat/folds.csv": "5b93f4ec1d28ec54014f2d8fa81987b0b13c54d80a23c34db8a481261a6dc42a",
    "collinear-lsoo-linear-flat/report.json": "faa916fb842eb40dfdabd41adf301d340af3ebaad88eb1a9f18846b83775d914",
    "collinear-lsoo-linear-flat/stdout": "907c8cdb147cf505ddd18bc4f939c25a628e86c89472e16f5d6615e127b35c72",
    "collinear-lsoo-linear-nested/folds.csv": "10edf561864be114720e08a00b5d481f8900b537b471feb206feb00927e730ca",
    "collinear-lsoo-linear-nested/report.json": "151da82c94faf8ebfd735d0cab8e632063e669c51fbda8fd1fb468d0f51bd0aa",
    "collinear-lsoo-linear-nested/stdout": "6304b562d69ade6bd11807cc9620e0aedd11728e38ec3cf7172597201f96c025",
    "collinear-lsoo-linear-predict/predictions.csv": "7380748a7ceeaa79ff3cd5403c4b071570abad7add09c4ae4a1b289965c3c9ad",
    "collinear-lsoo-linear-predict/stdout": "0dda7cc40b82b08e04c56c183d37e422731e8ea321d114eca8669429896a34a9",
    "collinear-potr-kernel16-fit/stdout": "23c65e9795bc51c62e0ce92a60665d85358941020c3132ad630a251bf3fc541f",
    "collinear-potr-kernel16-flat/folds.csv": "562614463438bd516a7b973a4a0a9c716b7c1a230229d4da0c969e8902a7ddbd",
    "collinear-potr-kernel16-flat/report.json": "9e7f128ad22e85deb660c8f7efa8ad277406eac2c0831afb2a202e96f640327e",
    "collinear-potr-kernel16-flat/stdout": "bc89f64525dd1118d75b716fb95d7f70a00e23e76e1e0c44a96811d8a445ae89",
    "collinear-potr-kernel16-nested/folds.csv": "84a10dd5d0a09402a72c188b70a8b057f79792aa0e369686338aaba137dacef0",
    "collinear-potr-kernel16-nested/report.json": "e70185a2248f7d2875e651d4b93bdc7087983b3e26e99849fea0c3abef9cb569",
    "collinear-potr-kernel16-nested/stdout": "bb0ee57b5be472b7aee7f056058006163e1ea8aef2a134c44a75350e2625d811",
    "collinear-potr-kernel16-predict/predictions.csv": "c0b296c8fb93ace963aab04600ab82191b6586a5b89bced106f6cba5602c8730",
    "collinear-potr-kernel16-predict/stdout": "c35275084655207afdebdc5e510d27cb0671c0a19d212cc044c7a61aa6886f17",
    "collinear-potr-linear-fit/stdout": "de5768c61a40a0dde2b2e2e347d9b735d9436e19d3b49305185274bdbb9c9db8",
    "collinear-potr-linear-flat/folds.csv": "1d49f418bb02d2c4f26988d5fc22132da787cfe734a2018ed8851ca9f1a7fae0",
    "collinear-potr-linear-flat/report.json": "29f41a73a8dbb24a76a4cf1cb1f924f5d139af9d61751033bb144eeadad9093f",
    "collinear-potr-linear-flat/stdout": "8836be94550a5b48b1a1e4e61bdc4872cdd6066d0e9b94910efb147b719b69ca",
    "collinear-potr-linear-nested/folds.csv": "d8242729be28e59b1b8edb098a94e388d0ac0ccad35d3d5f841b5e3e44cfa523",
    "collinear-potr-linear-nested/report.json": "0baacac00be1ea3d300b48523e0bf49a95a18e7acdf2e0013d629e89b04718ef",
    "collinear-potr-linear-nested/stdout": "d38cffe4ae783903b7d50d25b5cb26bea3dbb2960a3631d776d3ac5a51036b9b",
    "collinear-potr-linear-predict/predictions.csv": "ef2d53ba9715584bda17989149dfc989ee658f76e617a10408238044b6da9bf5",
    "collinear-potr-linear-predict/stdout": "acbeeb0af86502ab7aabff1c8d65cf7da81767ab4a3295405e3f1b9e166aae69",
    "collinear-srtr-kernel16-fit/stdout": "f43673dd567f7a23d4dfb946d54f0765c041518681994963409ba4722547d938",
    "collinear-srtr-kernel16-flat/folds.csv": "0e06bc6ba02dd13cbb8fc04dcaadb448231aa0ed1140aef1af8905734a5d6710",
    "collinear-srtr-kernel16-flat/report.json": "69679847bdb59c487ba07764b1810bfea305155cdabea84450b27dbc9fc2c9fb",
    "collinear-srtr-kernel16-flat/stdout": "192a53f14629771ea168bc3ec20fff88b5418d7e315bb2f8eb5dd7b8c72491b2",
    "collinear-srtr-kernel16-nested/folds.csv": "7b17dfae1e00b1ce2db15d8051c2fa2785f4538a860270f540b2789e21850248",
    "collinear-srtr-kernel16-nested/report.json": "12b6ad9ef1421978f2a1c5403d245f6b2925a178f5b5d15f286dc3722012575b",
    "collinear-srtr-kernel16-nested/stdout": "8ac1147030d3fc34020fb1df6ab65c1f39d039d058fa15954a6f288152c005e5",
    "collinear-srtr-kernel16-predict/predictions.csv": "c0b296c8fb93ace963aab04600ab82191b6586a5b89bced106f6cba5602c8730",
    "collinear-srtr-kernel16-predict/stdout": "c35275084655207afdebdc5e510d27cb0671c0a19d212cc044c7a61aa6886f17",
    "collinear-srtr-linear-fit/stdout": "93e2cad84edcd2cc8b31c36b3a6f08b56385fb7605860bf7ebf853b72abb2344",
    "collinear-srtr-linear-flat/folds.csv": "d893f1c0824d622827ea4a153360b08df101706049cd645e52591899ab866ed5",
    "collinear-srtr-linear-flat/report.json": "81ad25fc68917fc9f3c2335d61bfdc1f2b52c4753419ae851d66070befe1af95",
    "collinear-srtr-linear-flat/stdout": "8f396176b4072bd97d0a9b4f6ee2c3e0ecc2638653497500f4699fbb0a3cce8b",
    "collinear-srtr-linear-nested/folds.csv": "aed73bbe399afe5b00aa8f1985fcd77d2863d699a6a9df1921dddade0b74c0fc",
    "collinear-srtr-linear-nested/report.json": "e6e4141f8fec8697d3820d6b82014125a393a5f9e1ad6bfe9d586dccc70637bf",
    "collinear-srtr-linear-nested/stdout": "6b6cf5af41b895930d10557c852e273f10c10664083ccad5f822dc6b92756d2e",
    "collinear-srtr-linear-predict/predictions.csv": "ef2d53ba9715584bda17989149dfc989ee658f76e617a10408238044b6da9bf5",
    "collinear-srtr-linear-predict/stdout": "acbeeb0af86502ab7aabff1c8d65cf7da81767ab4a3295405e3f1b9e166aae69",
    "shifted-exhaustive-kernel16-fit/stdout": "06df970ef26c4e8f88a825ef355b4af49c3a157952e6d2e882edaafd8c1b39e2",
    "shifted-exhaustive-kernel16-flat/folds.csv": "0c08cce99cb2ec7202e485d9c7e69b4c4fdd524194005bb8a6748bcc18f52c67",
    "shifted-exhaustive-kernel16-flat/report.json": "93bd85bc843213eb58388eead76fb6670a24c5172d84d92e8c1c7053bad840a0",
    "shifted-exhaustive-kernel16-flat/stdout": "cb974b385523d3f8d3ada8e594723ea283e34e725a1c00dfd6972e661ff8704c",
    "shifted-exhaustive-kernel16-nested/folds.csv": "93fab3da789a47c59becfca3f66faebc91378f38d1fb0953eaaa0c8cbe8da4ac",
    "shifted-exhaustive-kernel16-nested/report.json": "4cb90e3dae425d8b270d5c80e00ac13fdcdf23ba156498c5457b0814bba9db5b",
    "shifted-exhaustive-kernel16-nested/stdout": "95f2da3ecec4d958106a1f85c769a6f7f181dd326de3f4d9f6b8dba2a8bf1191",
    "shifted-exhaustive-kernel16-predict/predictions.csv": "bb863c3b65c1229cda6b499e7761cbcea68b4ec880a99a3b9264294b1cbe1724",
    "shifted-exhaustive-kernel16-predict/stdout": "f28c9f81644cfaccf16a9e677c19322e2733e6542d5a51aa66860490f4b3d537",
    "shifted-exhaustive-linear-fit/stdout": "9a4fbe6b371c98710d203c7c3794121427c1c75ffec239ed4a2873cd6e60031a",
    "shifted-exhaustive-linear-flat/folds.csv": "9fab251ca3d4be493d4e9fe0602510523842d0b47f1e963de44b868cb6b69193",
    "shifted-exhaustive-linear-flat/report.json": "d205e591ded6de7f222ff67e0db5d166e12b148155e5cacba7491913626e0f29",
    "shifted-exhaustive-linear-flat/stdout": "f414a702774490e153467a910cdd6bf2fbce705525a5eb4e81682e1bfa9897af",
    "shifted-exhaustive-linear-nested/folds.csv": "a03543e5bfa290958befe59d168b2e68fe7d02fd9bf259af853ae751988f5d12",
    "shifted-exhaustive-linear-nested/report.json": "b66d19f7f3dedd289a0468b6598b3af014b10eefb50fe3193749e40e3737b6f6",
    "shifted-exhaustive-linear-nested/stdout": "56dd941a0db7a0ea921c4da2fb53bd5c400aba9731a33e7a9fa3417e6ad49eee",
    "shifted-exhaustive-linear-predict/predictions.csv": "74786e7693c7fcb6653e847b806ae40884e31556a56c061664bb18d47f1e97d6",
    "shifted-exhaustive-linear-predict/stdout": "b483c2ba8819b471883520ad8709df0a7b271502645778f627a4c7dd3e2833fa",
    "shifted-lsoo-kernel16-fit/stdout": "f33a4deba09fc75f5dba9ef60d63054f06eeb5a92f065bd05d91c270aad4924e",
    "shifted-lsoo-kernel16-flat/folds.csv": "ccf9f8ad243abfa4e5638f376eb5979be5d98f9c237406dfd36596d431f41ded",
    "shifted-lsoo-kernel16-flat/report.json": "c653b9f719c17d0d644c33f4448662b9ee1338528ff733292bd258d8d3daa088",
    "shifted-lsoo-kernel16-flat/stdout": "2330c5be43dd1fa3766e6caef8ea495ef726286ddbf654382905c594fc3276fa",
    "shifted-lsoo-kernel16-nested/folds.csv": "0ebe67478ff46597be4fd765ff5a88aeb41b283898eff3882f58a97ec78adec3",
    "shifted-lsoo-kernel16-nested/report.json": "0f1ffc2e0bda788629db0359419ab76d50609837d7e0c979fa64a44d33a9d0e3",
    "shifted-lsoo-kernel16-nested/stdout": "877beee8302088d9f53e1e7781cc29c2222ea4c6bae50f2fc6220c52b92c93d0",
    "shifted-lsoo-kernel16-predict/predictions.csv": "dcd637ce3e1eefa1dbf5ed3658a2dd77921ddfb7f3c3f87da7819db42a9fd22a",
    "shifted-lsoo-kernel16-predict/stdout": "b3e670566e416ebb4ede8e03f4fea7ef1038bc1e896bb23a82e929efa366f410",
    "shifted-lsoo-linear-fit/stdout": "e4296d97aa0a18f4f01476e843c55246c6c35de47736d55e888fc78e4690de17",
    "shifted-lsoo-linear-flat/folds.csv": "5afaed481d31edf2771c4d0157b66f4b7c1152eaf2e7ea32ab0ec374b145aa89",
    "shifted-lsoo-linear-flat/report.json": "9282cff68282fe6271cd88886bc44d36f8c33645aad256f4e627732ff0ff596e",
    "shifted-lsoo-linear-flat/stdout": "2eb36817ae357a7ac4fb0da55419643d557961da043da2561ff9308a986e9d52",
    "shifted-lsoo-linear-nested/folds.csv": "704fab5beee91dc052c275ab366b573122bf295e7812132e2e84dc186d1ddcdd",
    "shifted-lsoo-linear-nested/report.json": "57f1da97889cd7f011503316c7de3a01907210ae7ecc4676eef9a4e848e31119",
    "shifted-lsoo-linear-nested/stdout": "f34591a59836abe2f4349fc81bfcdbf04888ee433b00a9ae09b527f52bb604d8",
    "shifted-lsoo-linear-predict/predictions.csv": "7ddeea1c3411e3fa6223df1573aa546a08d9bb92e068b245729bd79b54240115",
    "shifted-lsoo-linear-predict/stdout": "20ba670f67b4c710954bc4272167211673362cebc112d7124dfacc382499073d",
    "shifted-potr-kernel16-fit/stdout": "0972eabbbc1977470eaad36727f4053cffd9f89532ac7d323e2dd4844865b62f",
    "shifted-potr-kernel16-flat/folds.csv": "716f0dfc5744cc07116da4d8e74c46a267cf102c91acf536672fcc7b9eacc8b2",
    "shifted-potr-kernel16-flat/report.json": "582c9b16d2cb1d39f9f8354176c5ed7a336a863822429e372d55b73be11b981d",
    "shifted-potr-kernel16-flat/stdout": "f0924469704ee03a8a9d06d98182b7740be1e0bbdc6d3a4696faab304097c898",
    "shifted-potr-kernel16-nested/folds.csv": "c1b310c4ed2153191cd63572911d2370f62e86078c792a678a6e9f5e5c4bebb7",
    "shifted-potr-kernel16-nested/report.json": "dba6d8c13f75e27d3ec27e2c71eb918131e7742a1d7caade7cdde8b6a3188125",
    "shifted-potr-kernel16-nested/stdout": "8a4e1c7faeaf0c5366fb155bc97b887421df59ade2392af4174f38a620804bc8",
    "shifted-potr-kernel16-predict/predictions.csv": "dcd637ce3e1eefa1dbf5ed3658a2dd77921ddfb7f3c3f87da7819db42a9fd22a",
    "shifted-potr-kernel16-predict/stdout": "b3e670566e416ebb4ede8e03f4fea7ef1038bc1e896bb23a82e929efa366f410",
    "shifted-potr-linear-fit/stdout": "9a0869194ebe2dacba0e7cc39f73858fa7affa6be3575c42ab2d40d5cf78d46d",
    "shifted-potr-linear-flat/folds.csv": "421c2754f5fed9dcb04630360354faaff9417891903d3e9b63b10f5506b615e9",
    "shifted-potr-linear-flat/report.json": "b372b47fab54e778224fb544f590198e9fd939debd638825b51d625f239cde3d",
    "shifted-potr-linear-flat/stdout": "27dc4e884147839b6dbd546de81eb96ebcc7d2303a8770639ff355f12c4adec8",
    "shifted-potr-linear-nested/folds.csv": "e2514a6bef0eadfe586a9ea2b5ca436fb3ab1e92d8530deae9e0495979e6e162",
    "shifted-potr-linear-nested/report.json": "82831c823a646221065eedf90944e3d251712c7f12ba5fb807f0bafc73969549",
    "shifted-potr-linear-nested/stdout": "a658ff355a83bef5c9fd982db77ea617e6562eb08bd58a7e56c4013b3376f884",
    "shifted-potr-linear-predict/predictions.csv": "74786e7693c7fcb6653e847b806ae40884e31556a56c061664bb18d47f1e97d6",
    "shifted-potr-linear-predict/stdout": "b483c2ba8819b471883520ad8709df0a7b271502645778f627a4c7dd3e2833fa",
    "shifted-srtr-kernel16-fit/stdout": "5eb315d9292fa21d1fdc7d4f25a26834bdd187dfacb1446840712e75d0cc1a0b",
    "shifted-srtr-kernel16-flat/folds.csv": "9e0b8fb5ed1aa1473557b03f94a91a666f9c309db323a8cb6736336cfaf1d38f",
    "shifted-srtr-kernel16-flat/report.json": "d3921c204d962163ec3a83a533a904a790001f0f4f2eaf850fe630638c645fe1",
    "shifted-srtr-kernel16-flat/stdout": "aa329be380b0c1c364ab9fdc32d0fee7f9664a828cb675d208c2657e09f1555f",
    "shifted-srtr-kernel16-nested/folds.csv": "fdc1e515d041842fe20a64df5d2677eaba82c35794b47627aa98694077e3f3df",
    "shifted-srtr-kernel16-nested/report.json": "0afcd3b7dc0fd740c413c19af858dcbcd889c7877a47b4632b9c8f0d4c3bcca3",
    "shifted-srtr-kernel16-nested/stdout": "888d50735f8229c6a7248f8ecc9b1ac976e8be715515d52d99080cabe3c504f4",
    "shifted-srtr-kernel16-predict/predictions.csv": "bb863c3b65c1229cda6b499e7761cbcea68b4ec880a99a3b9264294b1cbe1724",
    "shifted-srtr-kernel16-predict/stdout": "f28c9f81644cfaccf16a9e677c19322e2733e6542d5a51aa66860490f4b3d537",
    "shifted-srtr-linear-fit/stdout": "fd02604dd6847d9ef408c2dbff866ffbdd3ac93ab874e812eb2490442ba28c35",
    "shifted-srtr-linear-flat/folds.csv": "208de9c60a10a36fdccc1632e965df769396a8853031a1d6ca87075b54377f89",
    "shifted-srtr-linear-flat/report.json": "dee5c0126f2e38925857c6ddb9776e4d9db4174a782bd226474017d3997b03fd",
    "shifted-srtr-linear-flat/stdout": "52c5fd897ff2121c4480450cbea4fe9fbcb2c352a8eb6b9cd3d084ab3befcf07",
    "shifted-srtr-linear-nested/folds.csv": "e02ba98abf602045ba891e346ada11b03cc572b56fd38a5e054a9f899b28e364",
    "shifted-srtr-linear-nested/report.json": "3eefbb7d8b949528e5efb0f49b8e411065123138cdd3591588b256db443975b6",
    "shifted-srtr-linear-nested/stdout": "6d55e4679d581581bdf176ebee5c7161fcf9693969a0bd681321cc1a63a7f2b9",
    "shifted-srtr-linear-predict/predictions.csv": "d60d98bfe088c47417ad7d7e29184e7aaa4aadc239c172d4bcc5b243c912d18c",
    "shifted-srtr-linear-predict/stdout": "a7ef0c4a7602ac712d36ed9382485d6790f4cd4402a24857bc5e2658ae7e63d9",
}


#: node arrays pinned by checksum, in checksum order
PINNED_ARRAYS = ("weights", "intercepts", "feature_mean", "feature_scale")
MODEL_TOLERANCE = 1e-9

#: captured at commit 801ef7d; the ``exhaustive`` entries at commit afc8e29
GOLDEN_MODELS = {
    "collinear-exhaustive-kernel16-fit": (
        "{{{0,1},{2,3}},{{0},{1}},{{2},{3}}}",
        [
            [0.5014859047020385, 9.664358428769292e-17, 216.02593076249386, 60.00588548248679],
            [-1.0368987588578575, -1.74392869567252e-16, 203.74317903193642, 50.18682066763684],
            [0.2149227865015304, 7.625923323701646e-16, 228.3086824930513, 55.94966370653375],
        ],
    ),
    "collinear-exhaustive-linear-fit": (
        "{{{0,1},{2,3}},{{0},{1}},{{2},{3}}}",
        [
            [0.17639529263028814, -1.0279794914134148, None, None],
            [0.9754937278360032, -0.7706903765486565, None, None],
            [1.0140968733012976, -10.996083754566902, None, None],
        ],
    ),
    "collinear-lsoo-kernel16-fit": (
        "{{{1},{0,2,3}},{{0},{2,3}},{{2},{3}}}",
        [
            [0.7022804763654142, 0.49999999999999933, 216.02593076249386, 60.00588548248679],
            [0.45417159850016886, 0.33333333333333265, 221.29367970146401, 59.68615239428756],
            [0.2149227865015304, 7.625923323701646e-16, 228.3086824930513, 55.94966370653375],
        ],
    ),
    "collinear-lsoo-linear-fit": (
        "{{{2},{0,1,3}},{{3},{0,1}},{{0},{1}}}",
        [
            [-0.05672140729723615, 0.7653215496632573, None, None],
            [-0.16944302555767138, 1.0716749773036647, None, None],
            [0.9754937278360032, -0.7706903765486565, None, None],
        ],
    ),
    "collinear-potr-kernel16-fit": (
        "{{{0,3},{1,2}},{{0},{3}},{{1},{2}}}",
        [
            [-0.3003578971325824, 1.1605415547080063e-15, 216.02593076249386, 60.00588548248679],
            [0.2398574661973322, -1.9235474759318727e-16, 226.88919352879486, 61.28340023813557],
            [0.09844627431869721, -2.043411449252063e-16, 205.16266799619285, 53.99459188839336],
        ],
    ),
    "collinear-potr-linear-fit": (
        "{{{2,3},{0,1}},{{2},{3}},{{0},{1}}}",
        [
            [-0.17639529263028814, 1.0279794914134148, None, None],
            [1.0140968733012976, -10.996083754566902, None, None],
            [0.9754937278360032, -0.7706903765486565, None, None],
        ],
    ),
    "collinear-srtr-kernel16-fit": (
        "{{{0,3},{1,2}},{{0},{3}},{{1},{2}}}",
        [
            [-0.3003578971325824, 1.1605415547080063e-15, 216.02593076249386, 60.00588548248679],
            [0.2398574661973322, -1.9235474759318727e-16, 226.88919352879486, 61.28340023813557],
            [0.09844627431869721, -2.043411449252063e-16, 205.16266799619285, 53.99459188839336],
        ],
    ),
    "collinear-srtr-linear-fit": (
        "{{{2,3},{0,1}},{{2},{3}},{{0},{1}}}",
        [
            [-0.17639529263028814, 1.0279794914134148, None, None],
            [1.0140968733012976, -10.996083754566902, None, None],
            [0.9754937278360032, -0.7706903765486565, None, None],
        ],
    ),
    "shifted-exhaustive-kernel16-fit": (
        "{{{0,1},{2,3,4}},{{2,3},{4}},{{0},{1}},{{2},{3}}}",
        [
            [1.4032493417488752, 0.19999999999999818, 62.50890183659618, 15.908607529176045],
            [0.181016212781289, -0.33333333333333404, 64.31141838685991, 15.227786388228992],
            [0.95082623167367, 5.184705977411596e-16, 59.80512701120059, 14.144572857747693],
            [-0.19894205560706096, -7.926596539009107e-17, 67.27303889367475, 13.11217918486187],
        ],
    ),
    "shifted-exhaustive-linear-fit": (
        "{{{0,4},{1,2,3}},{{1,2},{3}},{{0},{4}},{{1},{2}}}",
        [
            [0.36916365548883956, -0.11174080157559613, None, None],
            [2.0779999018775293, -0.7536263528279403, None, None],
            [0.534472248228709, -0.0006491094545892154, None, None],
            [-0.05905276920459945, 0.056981153216574064, None, None],
        ],
    ),
    "shifted-lsoo-kernel16-fit": (
        "{{{1},{0,2,3,4}},{{0},{2,3,4}},{{4},{2,3}},{{2},{3}}}",
        [
            [0.29026020511753925, 0.5999999999999992, 62.50890183659618, 15.908607529176045],
            [1.423091943013907, 0.49999999999999994, 62.28231163800243, 16.24294195320784],
            [-0.181016212781289, 0.33333333333333404, 64.31141838685991, 15.227786388228992],
            [-0.19894205560706096, -7.926596539009107e-17, 67.27303889367475, 13.11217918486187],
        ],
    ),
    "shifted-lsoo-linear-fit": (
        "{{{4},{0,1,2,3}},{{0},{1,2,3}},{{3},{1,2}},{{1},{2}}}",
        [
            [-0.4818430921854612, 0.5038796102450969, None, None],
            [0.9566013887834243, -0.25060102442088394, None, None],
            [-2.0779999018775293, 0.7536263528279403, None, None],
            [-0.05905276920459945, 0.056981153216574064, None, None],
        ],
    ),
    "shifted-potr-kernel16-fit": (
        "{{{0,2,3,4},{1}},{{2,3,4},{0}},{{4},{2,3}},{{2},{3}}}",
        [
            [-0.29026020511753925, -0.5999999999999992, 62.50890183659618, 15.908607529176045],
            [-1.423091943013907, -0.49999999999999994, 62.28231163800243, 16.24294195320784],
            [-0.181016212781289, 0.33333333333333404, 64.31141838685991, 15.227786388228992],
            [-0.19894205560706096, -7.926596539009107e-17, 67.27303889367475, 13.11217918486187],
        ],
    ),
    "shifted-potr-linear-fit": (
        "{{{0,4},{1,2,3}},{{1,2},{3}},{{0},{4}},{{1},{2}}}",
        [
            [0.36916365548883956, -0.11174080157559613, None, None],
            [2.0779999018775293, -0.7536263528279403, None, None],
            [0.534472248228709, -0.0006491094545892154, None, None],
            [-0.05905276920459945, 0.056981153216574064, None, None],
        ],
    ),
    "shifted-srtr-kernel16-fit": (
        "{{{2,3,4},{0,1}},{{4},{2,3}},{{0},{1}},{{2},{3}}}",
        [
            [-1.4032493417488752, -0.19999999999999818, 62.50890183659618, 15.908607529176045],
            [-0.181016212781289, 0.33333333333333404, 64.31141838685991, 15.227786388228992],
            [0.95082623167367, 5.184705977411596e-16, 59.80512701120059, 14.144572857747693],
            [-0.19894205560706096, -7.926596539009107e-17, 67.27303889367475, 13.11217918486187],
        ],
    ),
    "shifted-srtr-linear-fit": (
        "{{{1,2,3,4},{0}},{{4},{1,2,3}},{{1,2},{3}},{{1},{2}}}",
        [
            [-0.8510067476743028, -0.3843795881793053, None, None],
            [-1.193537250499928, 0.3244647888775185, None, None],
            [2.0779999018775293, -0.7536263528279403, None, None],
            [-0.05905276920459945, 0.056981153216574064, None, None],
        ],
    ),
}


def shifted_bumps(seed, n_per_class=10, n_classes=5, length=32, noise=0.3):
    """One Gaussian bump per class at its own position, randomly shifted."""
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    rows, labels = [], []
    for cls in range(n_classes):
        centre = 4 + cls * (length - 8) / (n_classes - 1)
        for _ in range(n_per_class):
            shift = rng.integers(-5, 6)
            rows.append(np.exp(-0.5 * ((t - centre - shift) / 2.0) ** 2) + rng.normal(0, noise, length))
            labels.append(cls)
    return TimeSeriesDataset(np.vstack(rows), np.asarray(labels))


def _datasets():
    return {
        "collinear": (
            collinear_superclusters(n_per_class=12, series_length=32, noise=1.5),
            collinear_superclusters(n_per_class=6, series_length=32, noise=1.5, seed=1),
        ),
        "shifted": (shifted_bumps(seed=0), shifted_bumps(seed=1, n_per_class=4)),
    }


def _run(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(args))
    assert code == 0, args
    return out.getvalue()


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _checksum(array):
    """Sum of a flattened array weighted 1..2 along it, so that moving a value
    changes it too; None for an absent array."""
    if array is None:
        return None
    flat = np.ravel(array)
    return float(flat @ np.linspace(1.0, 2.0, flat.size))


def model_checksums(bundle: str):
    """(tree text, per node [weights, intercepts, feature_mean, feature_scale]
    checksums) of a model bundle."""
    model = LcpnModel.from_bundle(bundle)
    nodes = [
        [_checksum(getattr(node, name)) for name in PINNED_ARRAYS]
        for node in model.node_models
    ]
    return tree_to_text(model.tree), nodes


def run_corpus(root: Path):
    """(digest of every output by name, every report.json document, the
    checksums of every fitted model by fit name) for the corpus run with
    `root` as the working directory."""
    digests, reports, models = {}, [], {}
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for ds, (train, unseen) in _datasets().items():
            save_dataset(train, Path(f"{ds}.tsv"))
            save_dataset(unseen, Path(f"{ds}_unseen.tsv"))
            for splitter in SPLITTERS:
                for clf, clf_args in CLASSIFIERS.items():
                    tag = f"{ds}-{splitter}-{clf}"
                    common = ("--data", f"{ds}.tsv", "--splitter", splitter, *clf_args, *COMMON)
                    for mode in ("nested", "flat"):
                        out = f"{tag}-{mode}"
                        stdout = _run(("cv", "--mode", mode, "--outer-folds", "3", *common, "--out", out))
                        digests[f"{out}/stdout"] = _sha(stdout)
                        for name in ("report.json", "folds.csv"):
                            digests[f"{out}/{name}"] = _sha(Path(out, name).read_text())
                        reports.append(json.loads(Path(out, "report.json").read_text()))
                    digests[f"{tag}-fit/stdout"] = _sha(_run(("fit", *common, "--out", f"{tag}-fit")))
                    models[f"{tag}-fit"] = model_checksums(Path(f"{tag}-fit", "model.json").read_text())
                    out = f"{tag}-predict"
                    stdout = _run(
                        ("predict", "--model", f"{tag}-fit/model.json",
                         "--data", f"{ds}_unseen.tsv", "--out", out)
                    )
                    digests[f"{out}/stdout"] = _sha(stdout)
                    digests[f"{out}/predictions.csv"] = _sha(Path(out, "predictions.csv").read_text())
    finally:
        os.chdir(cwd)
    return digests, reports, models


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return run_corpus(tmp_path_factory.mktemp("golden"))


def test_outputs_are_byte_identical_to_the_golden_digests(corpus):
    digests, _, _ = corpus
    assert sorted(digests) == sorted(GOLDEN)
    changed = sorted(name for name in GOLDEN if digests[name] != GOLDEN[name])
    assert not changed


def test_fitted_models_match_their_trees_and_checksums(corpus):
    _, _, models = corpus
    assert sorted(models) == sorted(GOLDEN_MODELS)
    for name, (tree, nodes) in GOLDEN_MODELS.items():
        got_tree, got_nodes = models[name]
        assert got_tree == tree, name
        assert len(got_nodes) == len(nodes), name
        for got, want in zip(got_nodes, nodes):
            for array, g, w in zip(PINNED_ARRAYS, got, want):
                if w is None:
                    assert g is None, (name, array)
                else:
                    assert g == pytest.approx(w, rel=0, abs=MODEL_TOLERANCE), (name, array)


def test_no_fold_scores_one(corpus):
    _, reports, _ = corpus
    scores = [
        f[key]
        for report in reports
        for f in report["folds"]
        for key in ("inner_mean_score", "outer_test_score", "fc_score")
        if f[key] is not None
    ]
    assert len(scores) == 2 * len(SPLITTERS) * 2 * 3 * 5
    assert max(scores) < 1.0


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        found, _, models = run_corpus(Path(tmp))
    print("GOLDEN = {")
    for name, digest in sorted(found.items()):
        print(f'    "{name}": "{digest}",')
    print("}")
    print("GOLDEN_MODELS = {")
    for name, (tree, nodes) in sorted(models.items()):
        print(f'    "{name}": (\n        "{tree}",\n        [')
        for node in nodes:
            print(f"            {node!r},")
        print("        ],\n    ),")
    print("}")
